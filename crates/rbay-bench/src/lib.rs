//! # rbay-bench — harnesses regenerating the paper's tables and figures
//!
//! | Binary | What it is |
//! |---|---|
//! | `experiments` | every table, figure and ablation of the evaluation, one subcommand each (`experiments all` runs them in sequence) |
//! | `rbay-node` | the daemon: one process hosting one or many federation members over TCP |
//! | `cluster` | spawns a local federation of `rbay-node` processes and verifies queries end to end |
//! | `rbay-check` | the model checker's command line (explore, replay, shrink) |
//! | `aalint` | static analysis of AAScript handler sources |
//! | `trace_dump` | reconstructs tree-repair and query timelines from the observability trace |
//!
//! The list of experiments lives in one place, the table in
//! `src/bin/experiments/main.rs`; `experiments` with no subcommand
//! prints it.
//!
//! Every experiment accepts `--seed <n>` and `--scale <f>` (scales node
//! and query counts; `--scale 1` matches the defaults used in
//! `EXPERIMENTS.md`; larger scales approach the paper's full 16,000-agent
//! setup). Output is plain aligned text, one row per plotted point.
//! They additionally accept:
//!
//! * `--seeds <n>` — repeat the experiment over `n` consecutive seeds
//!   (`seed, seed+1, …`) via [`run_seeds`], which fans the independent
//!   simulations out over worker threads and merges the results in seed
//!   order, so the output is identical regardless of thread count.
//! * `--json` — additionally print each machine-readable result record
//!   as one line on stdout beginning `{"bench":` ([`JsonRecord::emit`]).
//!
//! A harness judges its own gates: a run that misses one exits non-zero.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;

use rbay_core::{Federation, QueryId, RbayConfig, RbayEvent};
use rbay_workloads::{populate_ec2_federation, QueryGen, ScenarioConfig, WORKLOAD_PASSWORD};
use simnet::{NodeAddr, ObsEvent, SimDuration, SimTime, SiteId, Topology};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Common command-line options of every harness.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// RNG seed.
    pub seed: u64,
    /// Size multiplier for node/query counts.
    pub scale: f64,
    /// Overrides the multiplier for *node* counts only (so a 16,000-agent
    /// overlay can be validated without multiplying query counts too).
    pub node_scale: Option<f64>,
    /// Number of consecutive seeds to run (`--seeds`), starting at `seed`.
    pub seeds: usize,
    /// Whether to print machine-readable records ([`JsonRecord::emit`]).
    pub json: bool,
    /// Whether to enable the structured observability event trace
    /// (`--trace`): harnesses that support it print per-event timelines.
    pub trace: bool,
    /// Whether to collect and report observability metrics (`--metrics`):
    /// failure-detection latency, false-positive counts, convergence
    /// rounds, appended to text output and JSON records.
    pub metrics: bool,
    /// Where to dump a `.schedule` counterexample if an invariant trips
    /// (`--schedule-out FILE`): the violating seed plus decision trace,
    /// replayable through `rbay-check replay FILE`.
    pub schedule_out: Option<String>,
}

impl HarnessOpts {
    /// Parses the harness flags from `args` (the command line after the
    /// program name and any subcommand). Unknown flags abort with a usage
    /// message.
    pub fn from_args(args: impl Iterator<Item = String>) -> Self {
        let mut opts = HarnessOpts {
            seed: 42,
            scale: 1.0,
            node_scale: None,
            seeds: 1,
            json: false,
            trace: false,
            metrics: false,
            schedule_out: None,
        };
        /// The value following `flag`, or a usage error.
        fn value<T: std::str::FromStr>(
            args: &mut impl Iterator<Item = String>,
            flag: &str,
            needs: &str,
        ) -> T {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage(&format!("{flag} needs {needs}")))
        }
        let mut args = args;
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--seed" => opts.seed = value(&mut args, &flag, "an integer"),
                "--scale" => opts.scale = value(&mut args, &flag, "a number"),
                "--node-scale" => opts.node_scale = Some(value(&mut args, &flag, "a number")),
                "--seeds" => {
                    opts.seeds = value(&mut args, &flag, "a positive integer");
                    if opts.seeds == 0 {
                        usage("--seeds needs a positive integer");
                    }
                }
                "--schedule-out" => {
                    opts.schedule_out = Some(value(&mut args, &flag, "a file path"))
                }
                "--json" => opts.json = true,
                "--trace" => opts.trace = true,
                "--metrics" => opts.metrics = true,
                other => usage(&format!("unknown flag `{other}`")),
            }
        }
        opts
    }

    /// Scales a count, keeping at least `min`.
    pub fn scaled(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(min)
    }

    /// Scales a *node* count: uses `--node-scale` when given, else
    /// `--scale`.
    pub fn scaled_nodes(&self, base: usize, min: usize) -> usize {
        let s = self.node_scale.unwrap_or(self.scale);
        ((base as f64 * s) as usize).max(min)
    }

    /// The consecutive seed list `[seed, seed+1, …]` selected by `--seeds`.
    pub fn seed_list(&self) -> Vec<u64> {
        (0..self.seeds as u64).map(|i| self.seed + i).collect()
    }
}

/// The flags [`HarnessOpts::from_args`] understands, for usage texts.
pub const HARNESS_FLAGS: &str = "[--seed N] [--scale F] [--node-scale F] [--seeds N] [--json] \
                                 [--trace] [--metrics] [--schedule-out FILE]";

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\nusage: <bin> {HARNESS_FLAGS}");
    std::process::exit(2);
}

/// Parses the value after flag `argv[i]` (the daemon's and the cluster
/// harness's flag style), exiting with status 2 when it is missing or
/// malformed.
pub fn flag_value<T: std::str::FromStr>(argv: &[String], i: usize) -> T
where
    T::Err: std::fmt::Display,
{
    argv.get(i + 1)
        .unwrap_or_else(|| {
            eprintln!("missing value for {}", argv[i]);
            std::process::exit(2);
        })
        .parse()
        .unwrap_or_else(|e| {
            eprintln!("bad value for {}: {e}", argv[i]);
            std::process::exit(2);
        })
}

/// Worker-thread count for [`run_seeds`]: the host's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `run(seed)` once per seed, fanning the independent runs out over
/// `threads` worker threads, and returns the results **in seed order**.
///
/// Each seed gets its own simulation inside `run`, so runs share nothing
/// and the merged output is bit-identical no matter how many threads
/// execute them (asserted by `run_seeds_thread_count_is_invisible`). With
/// `threads <= 1` the seeds run inline on the calling thread.
///
/// The worker pool is hand-rolled on `std::thread::scope` plus an atomic
/// work index: the build environment cannot fetch `rayon`, and this is the
/// only shape of parallelism the harnesses need.
pub fn run_seeds<T, F>(seeds: &[u64], threads: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let threads = threads.clamp(1, seeds.len().max(1));
    if threads == 1 {
        return seeds.iter().map(|&s| run(s)).collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(seeds.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&seed) = seeds.get(i) else { break };
                let out = run(seed);
                done.lock().expect("result sink poisoned").push((i, out));
            });
        }
    });
    let mut done = done.into_inner().expect("workers finished");
    done.sort_by_key(|(i, _)| *i);
    assert_eq!(done.len(), seeds.len(), "every seed produced a result");
    done.into_iter().map(|(_, t)| t).collect()
}

/// A flat JSON object under construction — the environment has no `serde`,
/// so records are rendered by hand. Keys are emitted in insertion order.
#[derive(Debug, Clone)]
pub struct JsonRecord {
    fields: Vec<(String, String)>,
}

impl JsonRecord {
    /// Starts a record tagged with the benchmark name.
    pub fn new(bench: &str) -> Self {
        let mut r = JsonRecord { fields: Vec::new() };
        r.push_raw("bench", &json_string(bench));
        r
    }

    fn push_raw(&mut self, key: &str, rendered: &str) {
        self.fields.push((key.to_string(), rendered.to_string()));
    }

    /// Adds a string field.
    pub fn text(mut self, key: &str, value: &str) -> Self {
        self.push_raw(key, &json_string(value));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.push_raw(key, &value.to_string());
        self
    }

    /// Adds a float field (non-finite values become `null`).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.push_raw(key, &rendered);
        self
    }

    /// Adds a float field only when the value is finite. Metrics with no
    /// observations in a run (e.g. failure-detection latency under zero
    /// churn) divide 0/0 to NaN; omitting the key keeps downstream tooling
    /// free of `null` special-casing while `num` stays available for
    /// fields that must always be present.
    pub fn num_opt(mut self, key: &str, value: f64) -> Self {
        if value.is_finite() {
            self.push_raw(key, &format!("{value}"));
        }
        self
    }

    /// Renders the record as a single-line JSON object.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_string(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The one way a row leaves a harness: one line on stdout, beginning
    /// `{"bench":`.
    pub fn emit(&self) {
        println!("{}", self.render());
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes a `.schedule` counterexample to the `--schedule-out` path when
/// one is set. The first violation of the process wins — later ones are
/// reported but do not overwrite the file, so "the winning seed" is
/// stable. No-op (beyond the caller's own report) without the flag.
pub fn emit_schedule(opts: &HarnessOpts, file: &rbay_check::ScheduleFile) {
    static WRITTEN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    let Some(path) = &opts.schedule_out else {
        return;
    };
    if WRITTEN.swap(true, Ordering::Relaxed) {
        eprintln!("note: {path} already holds this run's first violation; not overwriting");
        return;
    }
    match std::fs::write(path, file.render()) {
        Ok(()) => eprintln!("schedule written to {path}; replay with: rbay-check replay {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

/// [`JsonRecord::emit`]s `record` when `opts.json` is set.
pub fn emit_json(opts: &HarnessOpts, record: &JsonRecord) {
    if opts.json {
        record.emit();
    }
}

/// Basic statistics over a latency sample.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes summary statistics (`None` for an empty sample).
pub fn stats(xs: &[f64]) -> Option<Stats> {
    if xs.is_empty() {
        return None;
    }
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    Some(Stats {
        n,
        mean,
        stddev: var.sqrt(),
        min: xs.iter().cloned().fold(f64::INFINITY, f64::min),
        max: xs.iter().cloned().fold(0.0, f64::max),
    })
}

/// The `p`-quantile (0..=1) of a sorted sample, by linear interpolation.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }
}

/// Builds the eight-site EC2 federation populated with the paper's
/// workload, maintenance already run so tree aggregates are warm.
pub fn build_ec2_federation(nodes_per_site: usize, seed: u64) -> Federation {
    build_ec2_federation_with(nodes_per_site, seed, true)
}

/// Like [`build_ec2_federation`] but with administrative isolation
/// switchable: `site_isolation = false` reproduces the Fig. 11 deployment
/// where per-site trees rendezvous on the global ring.
pub fn build_ec2_federation_with(
    nodes_per_site: usize,
    seed: u64,
    site_isolation: bool,
) -> Federation {
    let cfg = RbayConfig {
        commit_results: false, // measurement queries release their finds
        site_isolation,
        ..RbayConfig::default()
    };
    let mut fed = Federation::with_config(Topology::aws_ec2_8_sites(nodes_per_site), seed, cfg);
    let scenario = ScenarioConfig {
        extra_attrs_per_node: 5,
        ..ScenarioConfig::default()
    };
    populate_ec2_federation(&mut fed, seed ^ 0xA5A5, &scenario);
    fed.run_maintenance(5, SimDuration::from_millis(250));
    fed.settle();
    fed
}

/// Runs `queries_per_cell` composite queries from `home` with a location
/// predicate spanning `n_sites`, returning per-query latencies (ms).
/// Satisfied and timed-out queries alike contribute: the paper reports
/// user-observed latency.
pub fn measure_query_latencies(
    fed: &mut Federation,
    qg: &mut QueryGen,
    home: SiteId,
    n_sites: usize,
    queries_per_cell: usize,
) -> Vec<f64> {
    let homes = fed.sim().topology().nodes_of_site(home);
    let mut out = Vec::with_capacity(queries_per_cell);
    for i in 0..queries_per_cell {
        let origin = homes[2 + (i % (homes.len() - 2))];
        let text = qg.composite(home, n_sites, 1);
        let id: QueryId = fed
            .issue_query(origin, &text, Some(WORKLOAD_PASSWORD))
            .expect("generated query parses");
        fed.settle();
        let rec = fed.query_record(origin, id).expect("record exists");
        if let Some(done) = rec.completed_at {
            out.push(done.saturating_since(rec.issued_at).as_millis_f64());
        }
        // Space queries out so reservations lapse between measurements.
        let horizon = fed.sim().now() + SimDuration::from_millis(2_500);
        fed.run_until(horizon);
    }
    out
}

/// Every node's events mapped through `latency_ms`, the hits grouped by
/// the node's site.
fn latencies_by_site(
    fed: &Federation,
    latency_ms: impl Fn(&RbayEvent) -> Option<f64>,
) -> Vec<Vec<f64>> {
    let topo = fed.sim().topology();
    let mut per_site = vec![Vec::new(); topo.site_count()];
    for i in 0..topo.node_count() as u32 {
        let n = NodeAddr(i);
        let site = topo.site_of(n).0 as usize;
        per_site[site].extend(fed.events(n).iter().filter_map(&latency_ms));
    }
    per_site
}

/// Collects every node's `Subscribed` latencies, grouped by site (Fig. 11
/// onSubscribe).
pub fn subscribe_latencies_by_site(fed: &Federation) -> Vec<Vec<f64>> {
    latencies_by_site(fed, |ev| match ev {
        RbayEvent::Subscribed {
            requested_at,
            attached_at,
            ..
        } => Some(attached_at.saturating_since(*requested_at).as_millis_f64()),
        _ => None,
    })
}

/// Collects admin-delivery latencies per site for the given command ids
/// (Fig. 11 onDeliver).
pub fn delivery_latencies_by_site(fed: &Federation, cmd_ids: &[u64]) -> Vec<Vec<f64>> {
    latencies_by_site(fed, |ev| match ev {
        RbayEvent::AdminDelivered {
            cmd_id,
            issued_at,
            delivered_at,
        } if cmd_ids.contains(cmd_id) => {
            Some(delivered_at.saturating_since(*issued_at).as_millis_f64())
        }
        _ => None,
    })
}

/// Prints the repair timeline of the tree keyed `tree_key`: one line per
/// failure declaration and per graft, leave, re-parent or orphan NACK in
/// that tree among the `events` at or after `since`, stamped relative to
/// it (`experiments churn --trace` and `trace_dump` both end in this).
pub fn print_repair_timeline(
    events: impl IntoIterator<Item = ObsEvent>,
    since: SimTime,
    tree_key: u128,
) {
    for ev in events {
        let at = ev.at();
        if at < since {
            continue;
        }
        let what = match ev {
            ObsEvent::HeartbeatExpire { detector, peer, .. } => {
                format!("{detector:?} declares {peer:?} failed")
            }
            ObsEvent::TreeParent {
                node,
                topic,
                old,
                new,
                ..
            } if topic == tree_key => match old {
                Some(old) => format!("{node:?} re-parents {old:?} -> {new:?}"),
                None => format!("{node:?} attaches under {new:?}"),
            },
            ObsEvent::TreeGraft {
                parent,
                child,
                topic,
                ..
            } if topic == tree_key => format!("{parent:?} grafts child {child:?}"),
            ObsEvent::TreeLeave {
                parent,
                child,
                topic,
                ..
            } if topic == tree_key => format!("{parent:?} drops child {child:?}"),
            ObsEvent::NotChild {
                node,
                orphan,
                topic,
                ..
            } if topic == tree_key => format!("{node:?} NACKs orphan {orphan:?}"),
            _ => continue,
        };
        println!(
            "  +{:>8.1} ms  {what}",
            at.saturating_since(since).as_millis_f64()
        );
    }
}

/// Prints a labelled CDF line: selected percentiles of a sample.
pub fn print_cdf_row(label: &str, xs: &mut [f64]) {
    xs.sort_by(f64::total_cmp);
    if xs.is_empty() {
        println!("{label:<24} (no samples)");
        return;
    }
    println!(
        "{label:<24} n={:<5} p10={:>8.1} p25={:>8.1} p50={:>8.1} p75={:>8.1} p90={:>8.1} p99={:>8.1}",
        xs.len(),
        percentile(xs, 0.10),
        percentile(xs, 0.25),
        percentile(xs, 0.50),
        percentile(xs, 0.75),
        percentile(xs, 0.90),
        percentile(xs, 0.99),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(percentile(&xs, 0.5), 2.5);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn stats_basics() {
        let s = stats(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.stddev, 2.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!(stats(&[]).is_none());
    }

    #[test]
    fn small_ec2_federation_answers_measurement_queries() {
        let mut fed = build_ec2_federation(8, 3);
        let mut qg = QueryGen::new(4, rbay_workloads::aws8_site_names(), 5);
        let lats = measure_query_latencies(&mut fed, &mut qg, SiteId(0), 2, 3);
        assert_eq!(lats.len(), 3, "every query completes");
        assert!(lats.iter().all(|l| *l > 0.0));
    }

    #[test]
    fn subscribe_latencies_cover_every_site() {
        let fed = build_ec2_federation(6, 5);
        let per_site = subscribe_latencies_by_site(&fed);
        assert_eq!(per_site.len(), 8);
        assert!(per_site.iter().all(|s| !s.is_empty()));
    }

    /// One independent simulation per seed, returning its full deterministic
    /// fingerprint (clock, stats, trace).
    fn fingerprint(seed: u64) -> (simnet::SimTime, simnet::NetStats, Vec<simnet::TraceEvent>) {
        use simnet::{Actor, Context, MessageSize, SimTime, Simulation, Transport};

        #[derive(Debug)]
        struct Ping(u32);
        impl MessageSize for Ping {}
        struct Bouncer;
        impl Actor for Bouncer {
            type Msg = Ping;
            fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeAddr, msg: Ping) {
                if msg.0 > 0 {
                    ctx.send(from, Ping(msg.0 - 1));
                }
            }
        }
        let mut sim = Simulation::new(Topology::aws_ec2_8_sites(2), seed, |_| Bouncer);
        sim.enable_trace(1 << 12);
        for i in 0..8u32 {
            sim.schedule_call(SimTime::ZERO, NodeAddr(i), move |_, ctx| {
                ctx.send(NodeAddr((i + 9) % 16), Ping(4 + i));
            });
        }
        sim.run_until_idle();
        (sim.now(), sim.stats().clone(), sim.trace().to_vec())
    }

    #[test]
    fn run_seeds_thread_count_is_invisible() {
        // The parallel driver must merge results in seed order: a 1-thread
        // run and a 4-thread run over the same seeds are indistinguishable.
        let seeds: Vec<u64> = (100..110).collect();
        let serial = run_seeds(&seeds, 1, fingerprint);
        let parallel = run_seeds(&seeds, 4, fingerprint);
        assert_eq!(serial, parallel);
        // And distinct seeds really exercise distinct schedules.
        assert_ne!(serial[0], serial[1]);
    }

    #[test]
    fn run_seeds_handles_edge_shapes() {
        let empty: Vec<u64> = run_seeds(&[], 8, |s| s);
        assert!(empty.is_empty());
        let one = run_seeds(&[7], 8, |s| s * 2);
        assert_eq!(one, vec![14]);
        let more_threads_than_seeds = run_seeds(&[1, 2], 16, |s| s + 1);
        assert_eq!(more_threads_than_seeds, vec![2, 3]);
    }

    #[test]
    fn num_opt_omits_non_finite_fields() {
        let rec = JsonRecord::new("sweep")
            .num_opt("present", 1.5)
            .num_opt("absent", f64::NAN)
            .num_opt("also_absent", f64::INFINITY);
        assert_eq!(rec.render(), r#"{"bench": "sweep", "present": 1.5}"#);
    }

    #[test]
    fn json_records_render_on_one_line() {
        let rec = JsonRecord::new("hops")
            .int("nodes", 1000)
            .num("avg_hops", 2.5)
            .num("bad", f64::NAN)
            .text("note", "a \"quoted\" value");
        assert_eq!(
            rec.render(),
            r#"{"bench": "hops", "nodes": 1000, "avg_hops": 2.5, "bad": null, "note": "a \"quoted\" value"}"#
        );
    }
}
