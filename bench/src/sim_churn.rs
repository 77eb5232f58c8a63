//! `sim_churn`: queries issued *while* the overlay repairs itself.
//!
//! The churn bench's deterministic core (`ChurnState`: one site, 1,000
//! nodes, heartbeat failure detection with a 400 ms timeout, a third of the
//! nodes holding `GPU=true`). Each epoch crashes 5 % of
//! the original population plus the tree's current root, schedules twelve
//! maintenance rounds, and,
//! open loop on the simulated clock, issues one `SELECT 1` every 5 ms
//! from rotating live queriers during those rounds; latency counts from
//! the scheduled send time. An exhaustive recall probe then asks for every
//! live holder. Heartbeats, `ReplicaSync`, warm promotion and rejoin do
//! most of the work here, the steady-state query path little. A timed lap is
//! one maintenance round of an epoch (250 simulated ms, 50 queries): short
//! enough that some laps escape the host's slow phases. Rounds differ in
//! size — detection and repair early in an epoch, fewer nodes every epoch —
//! so laps are compared by the simulator events they executed.

use crate::harness::{self, LapStats};
use crate::procfs::Proc;
use crate::report::{Outcome, RunCfg};
use crate::simcommon::{self, ROUND};
use crate::trace::Tracer;
use rbay_check::{ChurnParams, ChurnState};
use rbay_query::{parse_query, Query};
use rbay_workloads::WORKLOAD_PASSWORD;
use simnet::{NodeAddr, ObsEvent, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Federation size.
pub const NODES: usize = 1_000;
/// Share of the original population crashed per epoch.
pub const CRASH_FRAC: f64 = 0.05;
/// Maintenance rounds scheduled after each crash.
pub const REPAIR_ROUNDS: u32 = 12;
/// Open-loop queries per epoch, one every [`QUERY_GAP`]: they span the
/// repair window. Dense enough that the ~2 % of them that meet a crashed
/// node before it is detected fill the reported tail on every seed; at 120
/// per epoch the tail fell on either side of them from run to run.
pub const QUERIES_PER_EPOCH: u64 = 600;
/// Simulated time between two scheduled queries.
pub const QUERY_GAP: SimDuration = SimDuration::from_millis(5);
/// Fewest and most epochs a run may have: each removes 5 % of the
/// original nodes, and the repair metrics want more than a couple.
pub const EPOCH_RANGE: (usize, usize) = (3, 12);
/// Epochs per requested second; an epoch (twelve laps) takes about 1.7 s
/// on the reference host.
pub const EPOCHS_PER_S: f64 = 0.6;

/// The churn core plus what the harness remembers about it.
pub struct Churn {
    /// Shared deterministic core of the churn bench.
    pub st: ChurnState,
    query: Query,
    epochs_done: u64,
    /// One timed lap per maintenance round of the epochs run so far.
    rounds: LapStats,
    /// When each victim crashed.
    crashed_at: BTreeMap<NodeAddr, SimTime>,
}

/// What the epochs add to the run's samples.
#[derive(Default)]
pub struct Samples {
    /// Latency from the scheduled send time, simulated clock, ms.
    pub lat_ms: Vec<f64>,
    /// Engine attempts over the open-loop queries.
    pub attempts: u64,
    /// Per traced epoch: first maintenance round after which the root's
    /// aggregate matched the live holders again (`REPAIR_ROUNDS + 1`:
    /// never within the window).
    pub repair_rounds: Vec<f64>,
}

impl Churn {
    /// Builds and settles the federation as the churn bench does.
    pub fn build(seed: u64) -> Churn {
        let st = ChurnState::new(&ChurnParams {
            nodes: NODES,
            frac: CRASH_FRAC,
            epochs: EPOCH_RANGE.1 as u32,
            seed,
        });
        Churn {
            st,
            query: parse_query("SELECT 1 FROM * WHERE GPU = true").expect("static query"),
            epochs_done: 0,
            rounds: LapStats::default(),
            crashed_at: BTreeMap::new(),
        }
    }

    /// Nodes still alive.
    pub fn live(&self) -> usize {
        self.st.alive.iter().filter(|a| **a).count()
    }

    /// One epoch: crash `frac`, repair under open-loop load, probe recall.
    /// Adds one lap per maintenance round to `self.rounds`, each with the
    /// open-loop queries of that round that were answered correctly.
    pub fn epoch(&mut self, frac: f64, tracer: &mut Tracer, out: &mut Outcome, s: &mut Samples) {
        let e = self.epochs_done;
        self.epochs_done += 1;
        let op = tracer.begin("epoch", e);
        let t0 = self.st.fed.sim().now();
        let mut victims = tracer.span("crash_epoch", e, || self.st.crash_epoch(frac));
        if frac > 0.0 {
            victims.extend(self.crash_root());
        }
        for v in victims {
            self.crashed_at.insert(v, t0);
        }
        tracer.span("schedule_maintenance", e, || {
            self.st.fed.schedule_maintenance(REPAIR_ROUNDS, ROUND);
        });

        let queriers = self.st.live_queriers();
        let per_round = ROUND.as_micros() / QUERY_GAP.as_micros();
        let first_round = self.rounds.wall_s.len();
        let mut sent = Vec::with_capacity(QUERIES_PER_EPOCH as usize);
        let mut converged_round = None;
        let me = Proc::this();
        let events = |c: &Churn| c.st.fed.sim().stats().events();
        let mut lap = (Instant::now(), me.cpu_ms(), events(self));
        for j in 0..QUERIES_PER_EPOCH {
            let due = t0 + QUERY_GAP.saturating_mul(j);
            tracer.span("run_until", e, || self.st.fed.run_until(due));
            if tracer.is_enabled() && j > 0 && j % per_round == 0 && converged_round.is_none() {
                let holders = self.st.holders.len() as u64;
                if self.st.fed.tree_root_count(self.st.topic) == Some(holders) {
                    converged_round = Some(j / per_round);
                }
            }
            let origin = NodeAddr(queriers[j as usize % queriers.len()]);
            let id = tracer.span("issue_parsed_query", e, || {
                self.st
                    .fed
                    .issue_parsed_query(origin, self.query.clone(), Some(WORKLOAD_PASSWORD))
            });
            sent.push((origin, id, due));
            if (j + 1) % per_round == 0 {
                self.rounds.wall_s.push(lap.0.elapsed().as_secs_f64());
                self.rounds.cpu_ms.push(me.cpu_ms() - lap.1);
                // Filled in below, once the round's queries have been judged.
                self.rounds.satisfied.push(0);
                self.rounds.work.push(events(self) - lap.2);
                lap = (Instant::now(), me.cpu_ms(), events(self));
            }
        }
        let window_end = t0 + ROUND.saturating_mul(u64::from(REPAIR_ROUNDS));
        tracer.span("run_until", e, || self.st.fed.run_until(window_end));
        tracer.span("settle", e, || self.st.fed.settle());
        if tracer.is_enabled() {
            s.repair_rounds
                .push(converged_round.unwrap_or(u64::from(REPAIR_ROUNDS) + 1) as f64);
        }

        for (j, (origin, id, due)) in sent.into_iter().enumerate() {
            out.tally.attempt();
            let rec = self
                .st
                .fed
                .query_record(origin, id)
                .expect("issued query has a record");
            s.attempts += u64::from(rec.attempts);
            let checked = match (rec.satisfied, rec.completed_at) {
                (true, Some(done)) => {
                    simcommon::check_result(&self.st.fed, &self.query, &rec.result).map(|()| done)
                }
                _ => Err("unsatisfied".to_owned()),
            };
            match checked {
                Ok(done) => {
                    s.lat_ms.push(done.saturating_since(due).as_millis_f64());
                    self.rounds.satisfied[first_round + j / per_round as usize] += 1;
                }
                Err(why) => out
                    .tally
                    .fail(format!("epoch {e} query {j} from {origin:?}: {why}")),
            }
        }
        self.recall_probe(e, tracer, out);
        tracer.end(op);
    }

    /// Crashes the live root of the `GPU=true` tree as well (unless it is
    /// one of the queriers). Random victims alone take the root out in
    /// about one run in five, and such a run then has a half-second blackout
    /// in its latency tail that the others lack; with the root among the
    /// victims every epoch exercises warm promotion and every run has the
    /// same kind of tail.
    fn crash_root(&mut self) -> Option<NodeAddr> {
        let sim = self.st.fed.sim();
        let (root, _) = sim.actors().find(|(addr, a)| {
            !sim.is_failed(*addr) && a.scribe.topic(self.st.topic).is_some_and(|t| t.is_root)
        })?;
        if self.st.live_queriers().contains(&root.0) {
            return None;
        }
        self.st.alive[root.index()] = false;
        self.st.holders.retain(|h| *h != root);
        self.st.fed.sim_mut().fail_node(root);
        Some(root)
    }

    /// Asks for every live holder at once; missing one is a failed op.
    fn recall_probe(&mut self, e: u64, tracer: &mut Tracer, out: &mut Outcome) {
        out.tally.attempt();
        let want = self.st.holders.len();
        let Some(origin) = self.st.recall_origin() else {
            out.tally
                .fail(format!("epoch {e} recall probe: no live querier"));
            return;
        };
        let text = format!("SELECT {} FROM * WHERE GPU = true", want.max(1));
        let id = self
            .st
            .fed
            .issue_query(origin, &text, Some(WORKLOAD_PASSWORD))
            .expect("static query");
        tracer.span("settle", e, || self.st.fed.settle());
        let rec = self
            .st
            .fed
            .query_record(origin, id)
            .expect("issued query has a record");
        let live: BTreeSet<NodeAddr> = self.st.holders.iter().copied().collect();
        let found: BTreeSet<NodeAddr> = rec.result.iter().map(|c| c.addr).collect();
        if found.len() != rec.result.len() {
            out.tally
                .fail(format!("epoch {e} recall probe: duplicate candidate"));
        } else if found != live {
            out.tally.fail(format!(
                "epoch {e} recall probe: {} of {want} live holders, {} that are not",
                found.intersection(&live).count(),
                found.difference(&live).count()
            ));
        }
        // Let the probe's reservations lapse before the next epoch.
        let horizon = self.st.fed.sim().now() + SimDuration::from_secs(4);
        tracer.span("run_until", e, || self.st.fed.run_until(horizon));
    }

    /// Failure-detection latency (crash to first expiry naming the
    /// victim) and false positives, from the recorder's events.
    fn put_detection(&self, out: &mut Outcome) {
        let mut first: BTreeMap<NodeAddr, SimTime> = BTreeMap::new();
        let mut false_positives = 0u64;
        for ev in self.st.fed.recorder().events() {
            if let ObsEvent::HeartbeatExpire { at, peer, .. } = ev {
                match self.crashed_at.get(&peer) {
                    Some(&crashed) if at >= crashed => {
                        let f = first.entry(peer).or_insert(at);
                        *f = (*f).min(at);
                    }
                    _ => false_positives += 1,
                }
            }
        }
        if !first.is_empty() {
            let total: f64 = first
                .iter()
                .map(|(p, at)| at.saturating_since(self.crashed_at[p]).as_millis_f64())
                .sum();
            out.put_layer("pastry.fd_latency_ms", total / first.len() as f64);
        }
        out.put_layer("pastry.false_positives", false_positives as f64);
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new("sim_churn", "sim");
    out.facts.extend([
        ("nodes", NODES.into()),
        ("holders", (NODES / 3).into()),
        ("crash_frac", CRASH_FRAC.into()),
        ("repair_rounds", REPAIR_ROUNDS.into()),
        ("queries_per_epoch", QUERIES_PER_EPOCH.into()),
        ("query_gap_sim_ms", QUERY_GAP.as_millis_f64().into()),
        ("heartbeat_timeout_ms", 400u64.into()),
        ("idle_rounds", simcommon::IDLE_ROUNDS.into()),
        (
            "loop",
            "open on the simulated clock, 200 queries/sim-s".into(),
        ),
    ]);
    let (mut c, setup_walls) = harness::repeat_setup(cfg, || Churn::build(cfg.seed));

    // Warm-up lap: an epoch that crashes nobody.
    c.epoch(
        0.0,
        tracer,
        &mut Outcome::new("warmup", "sim"),
        &mut Samples::default(),
    );
    let epochs =
        ((EPOCHS_PER_S * cfg.seconds as f64).round() as usize).clamp(EPOCH_RANGE.0, EPOCH_RANGE.1);
    out.facts.push(("epochs", epochs.into()));
    c.rounds = LapStats::default();

    let mut s = Samples::default();
    if !cfg.trace {
        let before = c.st.fed.sim().stats().clone();
        let started = Instant::now();
        for e in 0..epochs {
            c.epoch(CRASH_FRAC, tracer, &mut out, &mut s);
            if started.elapsed().as_secs_f64() > 3.0 * cfg.seconds as f64 {
                eprintln!(
                    "bench: epochs overran 3x --seconds; stopping after epoch {}",
                    e + 1
                );
                break;
            }
        }
        let laps = std::mem::take(&mut c.rounds);
        let delta = c.st.fed.sim().stats().since(&before);
        harness::put_common(&mut out, &setup_walls, &laps);
        harness::put_latency(&mut out, &mut s.lat_ms);
        // A sixth of the queries are sent into the root-failover blackout
        // and wait out the query timeout: the tail is that timeout.
        out.not_applicable.push((
            "query_p99_ms",
            "saturated at the 5 s query timeout while more than 1 % of the queries fall into a failover blackout",
        ));
        simcommon::put_traffic(&mut out, &delta, &laps);
        out.exact.push(("live_nodes", c.live() as f64));
        out.put("peak_rss_mb", Proc::this().peak_rss_mib(), 1);
        return out;
    }

    // Traced pass: one untraced reference epoch, then one with spans and the
    // observability plane on (a whole epoch of heartbeats nearly fills a
    // recorder, hence a single traced epoch).
    c.epoch(
        CRASH_FRAC,
        tracer,
        &mut Outcome::new("reference", "sim"),
        &mut Samples::default(),
    );
    let reference = std::mem::take(&mut c.rounds);
    c.st.fed.enable_obs(1 << 20);
    tracer.enable();
    let before = c.st.fed.sim().stats().clone();
    c.epoch(CRASH_FRAC, tracer, &mut out, &mut s);
    let traced = std::mem::take(&mut c.rounds);
    let delta = c.st.fed.sim().stats().since(&before);
    harness::put_traced(&mut out, tracer, &reference, &traced);
    simcommon::put_simnet_layer(&mut out, &delta, &traced);
    simcommon::put_engine_layer(&mut out, &mut s.lat_ms, s.attempts, None);
    let live = c.live();
    simcommon::put_hops(&mut out, &c.st.fed, live);
    c.put_detection(&mut out);
    out.put_layer(
        "scribe.repair_rounds",
        crate::stats::median(&s.repair_rounds),
    );
    let trees = ["GPU=true".to_owned()];
    simcommon::put_federation_layers(&mut out, &mut c.st.fed, tracer, live, &trees);
    out
}
