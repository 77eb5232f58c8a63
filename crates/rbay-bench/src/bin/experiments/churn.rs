#![allow(clippy::needless_range_loop)] // index used for both reads and address math

//! Churn experiment — the evaluation the paper lists as future work
//! (§VI): "evaluate RBay's performance under different levels of churn in
//! resources and attribute values".
//!
//! Sweeps the churn level (fraction of nodes crashed per epoch, detected
//! purely by heartbeats) and reports query success rate and latency, plus
//! the recall of the inventory (fraction of live resource holders a
//! `SELECT all` finds) after automatic repair.
//!
//! The sweep judges itself ([`gate`]): it fails on an invariant
//! violation, on a success rate under the floor at 10 % or 20 % churn,
//! and — with `--metrics` — on a false-positive failure declaration, a
//! satisfied query that waited out its timeout (the `timeouts` column), a
//! level that recorded no observability events, or a heartbeat budget
//! that grew back (pings per node and round with nobody crashing).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rbay_bench::{
    default_threads, emit_json, emit_schedule, run_seeds, stats, HarnessOpts, JsonRecord,
};
use rbay_check::{invariants, ChurnParams, ChurnState, Scenario, ScheduleFile, Violation};
use rbay_core::{Federation, RbayConfig};
use rbay_query::AttrValue;
use simnet::{NodeAddr, ObsEvent, SimDuration, SimTime, Topology};
use std::collections::BTreeMap;

/// Observability-derived metrics for one seed's run (`--metrics`).
struct ObsOutcome {
    /// Mean latency (ms) from a node crash to the first heartbeat-based
    /// failure declaration naming it, over all detected victims.
    fd_latency_ms: f64,
    /// Heartbeat expirations naming a peer that had not (yet) crashed.
    false_positives: u64,
    /// Mean maintenance rounds per crash epoch until the root aggregate
    /// count matches the live-holder count again (9 = not within 8).
    converge_rounds: f64,
    /// Structured events held in the recorder at the end of the run.
    events: u64,
    /// Heartbeat pings sent (`hb_send`: every-round, slow-cadence and
    /// on-use) per live node and maintenance round.
    hb_per_node_round: f64,
}

/// What [`gate`] judges of one churn level, merged over its seeds.
struct LevelRow {
    churn_frac: f64,
    success_rate: f64,
    /// Satisfied queries whose latency reached the query timeout.
    timeouts: u32,
    /// Heartbeat expirations naming a live peer (`--metrics` only).
    false_positives: u64,
    /// Observability events recorded (`--metrics` only).
    obs_events: u64,
    /// Heartbeat pings per live node and round (`--metrics` only).
    hb_per_node_round: f64,
    /// A protocol-invariant violation some seed's run ended with.
    violation: Option<String>,
}

/// Lowest acceptable query success rate at a churn level: queries must
/// keep succeeding while trees repair (replicated rendezvous state plus
/// query retry). Levels under 10 % are reported, not gated.
fn success_floor(churn_frac: f64) -> f64 {
    if churn_frac >= 0.20 {
        0.80
    } else if churn_frac >= 0.10 {
        0.95
    } else {
        0.0
    }
}

/// Most heartbeat pings a node may send per round while nobody crashes:
/// its leaf sets (16) and tree neighbours every round, an eighth of the
/// rest of its routing table, the odd ping on use. Measured 17.1 at 30
/// nodes and 18.3 at 120, the sizes this sweep runs at; every known peer
/// every round — what the budget replaced — was 22.2 and 30.1, so the
/// ceiling sits between the two at either size.
const HB_PER_NODE_ROUND_CEILING: f64 = 20.0;

/// The sweep's verdict. The sweep never injects link loss, so with
/// `metrics` any false-positive failure declaration is a regression, as
/// is a level whose recorder saw nothing.
fn gate(rows: &[LevelRow], metrics: bool) -> Result<(), String> {
    for r in rows {
        let at = format!("at {:.0}% churn", r.churn_frac * 100.0);
        if let Some(v) = &r.violation {
            return Err(format!("invariant violation {at}: {v}"));
        }
        let floor = success_floor(r.churn_frac);
        if r.success_rate < floor {
            return Err(format!(
                "success rate {:.2} below {floor} {at}",
                r.success_rate
            ));
        }
        if metrics && r.false_positives > 0 {
            return Err(format!(
                "{} false-positive failure declaration(s) {at}",
                r.false_positives
            ));
        }
        if metrics && r.timeouts > 0 {
            return Err(format!(
                "{} satisfied quer{} waited out the query timeout {at}",
                r.timeouts,
                if r.timeouts == 1 { "y" } else { "ies" }
            ));
        }
        if metrics && r.obs_events == 0 {
            return Err(format!("no observability events recorded {at}"));
        }
        if metrics && r.churn_frac == 0.0 && r.hb_per_node_round > HB_PER_NODE_ROUND_CEILING {
            return Err(format!(
                "{:.1} heartbeat pings per node and round {at}, over the budget of {HB_PER_NODE_ROUND_CEILING}",
                r.hb_per_node_round
            ));
        }
    }
    Ok(())
}

struct Outcome {
    success_rate: f64,
    /// Satisfied queries that waited out the query timeout: an attempt was
    /// lost and only its retry answered.
    timeouts: u32,
    recall: f64,
    avg_latency: f64,
    obs: Option<ObsOutcome>,
    /// Protocol-invariant violation found at the end of the run, if any
    /// (checked by `rbay-check`'s quiescence oracles).
    violation: Option<Violation>,
}

fn run_level(n_nodes: usize, churn_frac: f64, epochs: u32, seed: u64, metrics: bool) -> Outcome {
    // The measured epochs are `rbay-check`'s bench:churn core, so a
    // violating seed replays through `rbay-check replay` the same code.
    let params = ChurnParams {
        nodes: n_nodes,
        frac: churn_frac,
        epochs,
        seed,
    };
    let mut st = ChurnState::with_setup(&params, |fed| {
        if metrics {
            fed.enable_obs(1 << 18);
        }
    });
    let query_timeout = st.fed.config().query_timeout;
    // With `--metrics`, record the first repair round after which the root
    // aggregate matches the live holder count again.
    let ran = st.run(churn_frac, epochs, |st| {
        metrics && st.fed.tree_root_count(st.topic) == Some(st.holders.len() as u64)
    });
    let violation = invariants::check_quiescent(&st.fed, &st.invariant_ctx());

    let mut latencies = Vec::new();
    let mut timeouts = 0u32;
    let mut fail_at: BTreeMap<NodeAddr, SimTime> = BTreeMap::new();
    for epoch in &ran {
        fail_at.extend(epoch.victims.iter().map(|v| (*v, epoch.crashed_at)));
        for took in epoch.latencies.iter().flatten() {
            timeouts += u32::from(*took >= query_timeout);
            latencies.push(took.as_millis_f64());
        }
    }
    let attempts: usize = ran.iter().map(|e| e.latencies.len()).sum();
    let recalls: Vec<f64> = ran.iter().filter_map(|e| e.recall).collect();

    let obs = metrics.then(|| {
        let rec = st.fed.recorder();
        // Failure-detection latency: first HeartbeatExpire naming each
        // victim at or after its crash. Any expiration naming a peer that
        // was alive at that moment is a false positive.
        let mut first_detect: BTreeMap<NodeAddr, SimTime> = BTreeMap::new();
        let mut false_positives = 0u64;
        for ev in rec.events() {
            if let ObsEvent::HeartbeatExpire { at, peer, .. } = ev {
                match fail_at.get(&peer) {
                    Some(&crashed) if at >= crashed => {
                        let first = first_detect.entry(peer).or_insert(at);
                        *first = (*first).min(at);
                    }
                    _ => false_positives += 1,
                }
            }
        }
        // A crashed node's round counter stopped with it, so the sum is
        // the rounds live nodes ran.
        let node_rounds: u64 = (st.fed.sim().actors())
            .map(|(_, a)| a.host.heartbeat_rounds())
            .sum();
        let snap = rec.snapshot();
        let det: Vec<f64> = first_detect
            .iter()
            .map(|(p, &d)| d.saturating_since(fail_at[p]).as_millis_f64())
            .collect();
        // 9: not converged within the epoch's 8 repair rounds.
        let converged: Vec<f64> = (ran.iter())
            .map(|e| e.converged_after.unwrap_or(9) as f64)
            .collect();
        ObsOutcome {
            fd_latency_ms: stats(&det).map(|s| s.mean).unwrap_or(f64::NAN),
            false_positives,
            converge_rounds: converged.iter().sum::<f64>() / converged.len().max(1) as f64,
            events: snap.events_recorded,
            hb_per_node_round: snap.count("hb_send") as f64 / node_rounds.max(1) as f64,
        }
    });

    Outcome {
        success_rate: latencies.len() as f64 / attempts.max(1) as f64,
        timeouts,
        recall: recalls.iter().sum::<f64>() / recalls.len().max(1) as f64,
        avg_latency: stats(&latencies).map(|s| s.mean).unwrap_or(f64::NAN),
        obs,
        violation,
    }
}

/// `--trace`: runs one small traced federation through a crash epoch and
/// prints the tree-repair timeline of the `GPU=true` tree (the same
/// reconstruction the `trace_dump` tool performs on a canned scenario).
fn trace_crash_epoch(n_nodes: usize, churn_frac: f64, seed: u64) {
    let params = ChurnParams {
        nodes: n_nodes,
        frac: churn_frac,
        epochs: 1,
        seed,
    };
    let mut st = ChurnState::with_setup(&params, |fed| {
        fed.enable_obs(1 << 16);
    });
    let epoch = st.epoch(churn_frac, |_| false);
    let victims: Vec<u32> = epoch.victims.iter().map(|v| v.0).collect();

    println!(
        "\nRepair timeline, GPU=true tree ({n_nodes} nodes, seed {seed}, victims {victims:?}):"
    );
    let tree = st.topic.key().as_u128();
    rbay_bench::print_repair_timeline(st.fed.recorder().events(), epoch.crashed_at, tree);
    println!(
        "  final: root count {:?}, {} tree edges",
        st.fed.tree_root_count(st.topic),
        st.fed.tree_edge_count(st.topic)
    );
}

/// Attribute-value churn: each epoch a fraction of nodes flips its
/// utilization reading; AA-driven membership (`onSubscribe` /
/// `onUnsubscribe`) must track the changes. Reports membership accuracy
/// after maintenance.
fn run_value_churn(n_nodes: usize, flip_frac: f64, epochs: u32, seed: u64) -> f64 {
    let cfg = RbayConfig::default();
    let mut fed = Federation::with_config(Topology::single_site(n_nodes, 0.5), seed, cfg);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xBEEF);
    // Every node runs the low-utilization membership policy.
    let policy = r#"
        function onSubscribe(caller, topic)
            return attrs.CPU_utilization ~= nil and attrs.CPU_utilization < 10
        end
        function onUnsubscribe(caller, topic)
            return attrs.CPU_utilization ~= nil and attrs.CPU_utilization >= 10
        end
    "#;
    let mut utils: Vec<f64> = (0..n_nodes).map(|_| rng.gen_range(0.0..100.0)).collect();
    for i in 0..n_nodes as u32 {
        fed.update_attr(
            NodeAddr(i),
            "CPU_utilization",
            AttrValue::Num(utils[i as usize]),
        );
        fed.install_node_aa(NodeAddr(i), policy);
        fed.register_dynamic_tree(NodeAddr(i), "CPU_utilization<10");
    }
    fed.settle();
    fed.run_maintenance(3, SimDuration::from_millis(250));
    fed.settle();

    let mut accuracy_sum = 0.0;
    for _ in 0..epochs {
        // Flip readings on a random fraction of nodes.
        for i in 0..n_nodes {
            if rng.gen_bool(flip_frac) {
                utils[i] = rng.gen_range(0.0..100.0);
                fed.update_attr(
                    NodeAddr(i as u32),
                    "CPU_utilization",
                    AttrValue::Num(utils[i]),
                );
            }
        }
        fed.settle();
        fed.run_maintenance(3, SimDuration::from_millis(250));
        fed.settle();
        // Check membership against ground truth.
        let topic = fed
            .node(NodeAddr(0))
            .host
            .tree_topic("CPU_utilization<10", simnet::SiteId(0));
        let correct = (0..n_nodes)
            .filter(|i| {
                let should = utils[*i] < 10.0;
                let is = fed
                    .node(NodeAddr(*i as u32))
                    .scribe
                    .topic(topic)
                    .is_some_and(|st| st.subscribed);
                should == is
            })
            .count();
        accuracy_sum += correct as f64 / n_nodes as f64;
    }
    accuracy_sum / epochs as f64
}

pub fn run(opts: &HarnessOpts) {
    let n_nodes = opts.scaled(120, 30);
    let epochs = 4;
    let seeds = opts.seed_list();
    println!("Churn sweep (paper §VI future work): {n_nodes} nodes, {epochs} crash epochs,");
    println!(
        "heartbeat detection only — no manual failure notification ({} seed(s))\n",
        seeds.len()
    );
    println!(
        "{:>12} {:>14} {:>10} {:>14} {:>9}",
        "churn/epoch", "success rate", "recall", "avg q-lat ms", "timeouts"
    );
    let mut rows = Vec::new();
    for &frac in &[0.0, 0.02, 0.05, 0.10, 0.20] {
        // One independent federation per seed; averages merged in seed order.
        let outcomes = run_seeds(&seeds, default_threads(), |seed| {
            run_level(n_nodes, frac, epochs, seed, opts.metrics)
        });
        // Protocol-invariant oracles ran at the end of every seed's run;
        // a violation is a regression, dumped as a replayable schedule.
        let mut violation = None;
        for (&seed, o) in seeds.iter().zip(&outcomes) {
            if let Some(v) = &o.violation {
                eprintln!(
                    "INVARIANT VIOLATION (churn {:.0}%, seed {seed}): {v}",
                    frac * 100.0
                );
                emit_schedule(
                    opts,
                    &ScheduleFile {
                        spec: Scenario::Churn(ChurnParams {
                            nodes: n_nodes,
                            frac,
                            epochs,
                            seed,
                        }),
                        violation: Some(v.kind().to_string()),
                        directives: Vec::new(),
                    },
                );
                violation.get_or_insert_with(|| v.to_string());
            }
        }
        let n = outcomes.len() as f64;
        let success = outcomes.iter().map(|o| o.success_rate).sum::<f64>() / n;
        let recall = outcomes.iter().map(|o| o.recall).sum::<f64>() / n;
        let lats: Vec<f64> = outcomes
            .iter()
            .map(|o| o.avg_latency)
            .filter(|l| l.is_finite())
            .collect();
        let avg_latency = stats(&lats).map(|s| s.mean).unwrap_or(f64::NAN);
        let timeouts = outcomes.iter().map(|o| o.timeouts).sum::<u32>();
        println!(
            "{:>11.0}% {:>13.0}% {:>9.0}% {:>14.1} {:>9}",
            frac * 100.0,
            success * 100.0,
            recall * 100.0,
            avg_latency,
            timeouts
        );
        let mut record = JsonRecord::new("churn")
            .num("churn_frac", frac)
            .int("nodes", n_nodes as u64)
            .int("seeds", seeds.len() as u64)
            .num("success_rate", success)
            .num("recall", recall)
            .num_opt("avg_latency_ms", avg_latency)
            .int("timeouts", u64::from(timeouts));
        let (mut false_positives, mut obs_events, mut hb_per_node_round) = (0, 0, 0.0);
        if opts.metrics {
            let m: Vec<&ObsOutcome> = outcomes.iter().filter_map(|o| o.obs.as_ref()).collect();
            let det: Vec<f64> = m
                .iter()
                .map(|o| o.fd_latency_ms)
                .filter(|l| l.is_finite())
                .collect();
            let fd_latency = stats(&det).map(|s| s.mean).unwrap_or(f64::NAN);
            false_positives = m.iter().map(|o| o.false_positives).sum();
            let converge =
                m.iter().map(|o| o.converge_rounds).sum::<f64>() / (m.len().max(1)) as f64;
            obs_events = m.iter().map(|o| o.events).sum();
            hb_per_node_round =
                m.iter().map(|o| o.hb_per_node_round).sum::<f64>() / (m.len().max(1)) as f64;
            println!(
                "{:>12} fd-lat {:>7.1} ms   false-pos {:>3}   converge {:>4.2} rounds   {:>8} events   {:>5.1} pings/node/round",
                "", fd_latency, false_positives, converge, obs_events, hb_per_node_round
            );
            record = record
                .num_opt("fd_latency_ms", fd_latency)
                .int("false_positives", false_positives)
                .num("agg_converge_rounds", converge)
                .int("obs_events", obs_events)
                .num("hb_per_node_round", hb_per_node_round);
        }
        emit_json(opts, &record);
        rows.push(LevelRow {
            churn_frac: frac,
            success_rate: success,
            timeouts,
            false_positives,
            obs_events,
            hb_per_node_round,
            violation,
        });
    }
    if opts.trace {
        trace_crash_epoch(n_nodes.min(40), 0.20, opts.seed);
    }
    println!("\n(success and recall stay high while churn grows; the repair cost is");
    println!(" heartbeat traffic plus O(log N) rejoin messages per orphaned subtree)");

    println!("\nAttribute-value churn: AA-driven membership of the CPU_utilization<10 tree");
    println!("{:>12} {:>22}", "flips/epoch", "membership accuracy");
    for &frac in &[0.0, 0.1, 0.3, 0.6] {
        let accs = run_seeds(&seeds, default_threads(), |seed| {
            run_value_churn(n_nodes, frac, epochs, seed)
        });
        let acc = accs.iter().sum::<f64>() / accs.len() as f64;
        println!("{:>11.0}% {:>21.1}%", frac * 100.0, acc * 100.0);
        emit_json(
            opts,
            &JsonRecord::new("churn_values")
                .num("flip_frac", frac)
                .int("nodes", n_nodes as u64)
                .int("seeds", seeds.len() as u64)
                .num("membership_accuracy", acc),
        );
    }
    println!("\n(onSubscribe/onUnsubscribe re-evaluate each maintenance round, so");
    println!(" membership tracks the readings within one round of the change)");
    if let Err(e) = gate(&rows, opts.metrics) {
        crate::fail(&e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(churn_frac: f64, success_rate: f64) -> LevelRow {
        LevelRow {
            churn_frac,
            success_rate,
            timeouts: 0,
            false_positives: 0,
            obs_events: 1,
            hb_per_node_round: 18.0,
            violation: None,
        }
    }

    #[test]
    fn gate_passes_a_healthy_sweep() {
        let rows = [row(0.0, 1.0), row(0.10, 0.95), row(0.20, 0.80)];
        assert_eq!(gate(&rows, true), Ok(()));
        // Without --metrics the observability columns are not judged.
        let blind = LevelRow {
            obs_events: 0,
            ..row(0.10, 1.0)
        };
        assert_eq!(gate(&[blind], false), Ok(()));
    }

    #[test]
    fn gate_fails_on_an_invariant_violation() {
        let bad = LevelRow {
            violation: Some("tree has two roots".into()),
            ..row(0.02, 1.0)
        };
        assert!(gate(&[row(0.0, 1.0), bad], false).is_err());
    }

    #[test]
    fn gate_fails_on_recall_collapse() {
        assert!(gate(&[row(0.10, 0.94)], false).is_err());
        assert!(gate(&[row(0.20, 0.79)], false).is_err());
        assert_eq!(gate(&[row(0.05, 0.5)], false), Ok(()), "reported only");
    }

    #[test]
    fn gate_fails_on_metrics_regressions() {
        let false_positive = LevelRow {
            false_positives: 1,
            ..row(0.05, 1.0)
        };
        assert!(gate(std::slice::from_ref(&false_positive), true).is_err());
        assert_eq!(gate(&[false_positive], false), Ok(()));
        let silent = LevelRow {
            obs_events: 0,
            ..row(0.05, 1.0)
        };
        assert!(gate(&[silent], true).is_err());
        // A probe a dead hop swallowed is routed again when the hop is
        // declared: a query that still waits out its timeout is a
        // regression at every level.
        let timed_out = LevelRow {
            timeouts: 1,
            ..row(0.20, 1.0)
        };
        assert!(gate(std::slice::from_ref(&timed_out), true).is_err());
        assert_eq!(gate(&[timed_out], false), Ok(()));
        // The heartbeat budget is judged where nobody crashes: repair
        // traffic at the other levels is not the budget growing back.
        let chatty = |churn_frac| LevelRow {
            hb_per_node_round: 42.3,
            ..row(churn_frac, 1.0)
        };
        assert!(gate(&[chatty(0.0)], true).is_err());
        assert_eq!(gate(&[chatty(0.0)], false), Ok(()));
        assert_eq!(gate(&[chatty(0.05)], true), Ok(()));
    }
}
