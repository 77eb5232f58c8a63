//! Checker soundness on correct code: bounded exploration finds no
//! violations, replays are deterministic, and the acceptance-scale
//! exploration (>= 10k distinct interleavings, < 60 s) holds.

use rbay_check::runner::{self, ExploreOpts};
use rbay_check::{
    explore, explore_random, replay, CheckSpec, Fig8Params, Probes, Scenario, ScheduleFile,
};
use simnet::{EarliestFirst, ReplayScheduler, ThinVec};
use std::time::Duration;

#[test]
fn correct_code_has_no_violations_in_bounded_exploration() {
    for (spec, target_distinct) in [
        (CheckSpec::subscribe_fail_repair(3, 7), 1_500),
        (CheckSpec::root_crash_mid_query(5, 11), 300),
    ] {
        let report = explore(
            &spec,
            &ExploreOpts {
                budget: Duration::from_secs(10),
                target_distinct,
                ..Default::default()
            },
        );
        assert!(
            report.violations.is_empty(),
            "false positive on correct code: {:?}",
            report.violations[0].violation
        );
        assert!(report.distinct > 100, "explorer barely moved: {report:?}");
    }
}

#[test]
fn correct_code_survives_random_walks() {
    // The second spec is the mutation suite's search (`mutation.rs`): what
    // finds the four mutants must stay silent without them.
    let mut heavy_loss = CheckSpec::subscribe_fail_repair(3, 7);
    heavy_loss.max_drops = 6;
    for (spec, walks, p_fault) in [
        (CheckSpec::subscribe_fail_repair(4, 11), 40, 0.02),
        (CheckSpec::root_crash_mid_query(5, 11), 40, 0.02),
        (heavy_loss, 400, 0.3),
    ] {
        let report = explore_random(&spec, walks, p_fault);
        assert!(
            report.violations.is_empty(),
            "false positive on correct code: {:?}",
            report.violations[0].violation
        );
    }
}

#[test]
fn default_schedule_replays_deterministically() {
    let spec = CheckSpec::subscribe_fail_repair(3, 7);
    let run = |spec: &CheckSpec| {
        let mut sched = EarliestFirst;
        runner::run_one(spec, &mut sched)
    };
    let a = run(&spec);
    let b = run(&spec);
    assert!(a.violation.is_none(), "{:?}", a.violation);
    assert!(a.quiescent);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.decisions, b.decisions);
}

#[test]
fn divergent_schedule_replays_deterministically() {
    // Record a real divergent run (skew the first explored step), then
    // replay its schedule twice and demand identical outcomes.
    let spec = CheckSpec::subscribe_fail_repair(3, 7);
    let ready = {
        let mut p = spec.prepare();
        p.fed.sim_mut().explore_ready(runner::WINDOW)
    };
    assert!(ready.len() > 1, "scenario must open with co-enabled events");
    let directives = vec![(0usize, simnet::Choice::Fire(ready[1].seq))];

    let run = |d: &[(usize, simnet::Choice)]| {
        let mut sched = ReplayScheduler::new(d.iter().copied());
        runner::run_one(&spec, &mut sched)
    };
    let a = run(&directives);
    let b = run(&directives);
    assert_eq!(a.decisions, directives);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.violation.is_none(), b.violation.is_none());
}

#[test]
fn schedule_file_replay_matches_direct_run() {
    let spec = CheckSpec::subscribe_fail_repair(3, 7);
    let file = ScheduleFile {
        spec: Scenario::Explored(spec),
        violation: None,
        directives: Vec::new(),
    };
    let parsed = ScheduleFile::parse(&file.render()).expect("round trip");
    assert!(replay(&parsed).violation.is_none());
}

/// Saved schedules name events by `seq`, so the order the engine numbers
/// events in is a file format; and a bench schedule names an experiment's
/// core, so that core is one too. Each fixture and its digest were
/// recorded before the code that replays it last changed: `divergent` (an
/// explored window: fire, drop, crash, fire), `churn` (the 30-node, 20 %,
/// 4-epoch, seed-43 sweep cell that once left the tree rootless) and
/// `fig8a` (100 nodes, 100 probes, seed 42) before the experiments came to
/// run the cores `replay` runs. A change that renumbers events or alters a
/// core replays a file to something else and fails here.
#[test]
fn committed_schedules_replay_to_their_recorded_digests() {
    for (name, schedule, digest) in [
        (
            "divergent",
            include_str!("fixtures/divergent.schedule"),
            include_str!("fixtures/divergent.digest"),
        ),
        (
            "churn",
            include_str!("fixtures/churn.schedule"),
            include_str!("fixtures/churn.digest"),
        ),
        (
            "fig8a",
            include_str!("fixtures/fig8a.schedule"),
            include_str!("fixtures/fig8a.digest"),
        ),
    ] {
        let file = ScheduleFile::parse(schedule).expect("parses");
        let r = replay(&file);
        let got = format!(
            "violation {}\nsteps {}\nclock-us {}\nsent {}\ndelivered {}\ndropped {}\nbytes {}\nevents {}\n",
            r.violation.as_ref().map_or("none", |v| v.kind()),
            r.steps,
            r.now.as_micros(),
            r.stats.sent(),
            r.stats.delivered(),
            r.stats.dropped(),
            r.stats.bytes(),
            r.stats.events(),
        );
        assert_eq!(got, digest, "{name}");
    }
}

/// A fig8b counterexample names fig8b's probes — ten keys, each probed
/// `per_key` times — so its replay routes what the experiment routed, not
/// fig8a's one probe per key.
#[test]
fn a_fig8b_schedule_replays_fig8b() {
    let params = Fig8Params {
        nodes: 100,
        probes: Probes::PerKey {
            keys: 10,
            per_key: 10,
        },
        seed: 42,
    };
    let ran = params.run(|_| {});
    let file = ScheduleFile {
        spec: Scenario::Fig8(params),
        violation: None,
        directives: Vec::new(),
    };
    let replayed = replay(&ScheduleFile::parse(&file.render()).expect("round trip"));
    assert!(replayed.violation.is_none(), "{:?}", replayed.violation);
    assert_eq!(replayed.stats, *ran.stats());
    assert_eq!(replayed.now, ran.now());
}

/// The ISSUE acceptance run: >= 10_000 distinct interleavings of the
/// 3-node subscribe-fail-repair scenario in under 60 s. Wall-clock
/// sensitive, so it is `#[ignore]`d from the default suite and executed
/// explicitly by the CI `check` job.
#[test]
#[ignore = "wall-clock acceptance run; executed by the CI check job"]
fn ten_thousand_distinct_interleavings_within_60s() {
    let spec = CheckSpec::subscribe_fail_repair(3, 7);
    let report = explore(
        &spec,
        &ExploreOpts {
            budget: Duration::from_secs(58),
            target_distinct: 10_000,
            ..Default::default()
        },
    );
    assert!(
        report.violations.is_empty(),
        "false positive on correct code: {:?}",
        report.violations[0].violation
    );
    assert!(
        report.distinct >= 10_000,
        "only {} distinct interleavings in {:?}",
        report.distinct,
        report.elapsed
    );
    assert!(report.elapsed < Duration::from_secs(60));
}

/// `unheld-result` off the explored windows: with commits on, a query
/// satisfied at its timeout (the remote site's border routers are all
/// down; the local holder is enough for `k`) must leave its holder
/// committed to it.
#[test]
fn a_query_satisfied_at_its_timeout_holds_its_result() {
    use rbay_check::invariants::{check_quiescent, InvariantCtx};
    use rbay_core::Federation;
    use rbay_query::AttrValue;
    use simnet::{NodeAddr, SimDuration, SiteId, SiteSpec, Topology};

    let site = |name: &str| SiteSpec {
        name: name.to_owned(),
        nodes: 8,
        instability: 1.0,
    };
    let topology = Topology::new(
        vec![site("here"), site("there")],
        vec![vec![0.5, 80.0], vec![80.0, 0.5]],
    );
    let mut fed = Federation::new(topology, 7);
    assert!(fed.config().commit_results);
    let holder = NodeAddr(5);
    fed.post_resource(holder, "GPU", AttrValue::Bool(true));
    fed.run_maintenance(4, SimDuration::from_millis(200));
    fed.settle();
    for gw in 8..11 {
        fed.sim_mut().fail_node(NodeAddr(gw));
    }
    let q = fed
        .issue_query(NodeAddr(6), "SELECT 1 FROM * WHERE GPU = true", None)
        .unwrap();
    fed.settle();
    assert!(fed.query_record(NodeAddr(6), q).unwrap().satisfied);

    let topic = fed.node(holder).host.tree_topic("GPU=true", SiteId(0));
    let violation = check_quiescent(&fed, &InvariantCtx::new(topic, vec![holder]));
    assert!(violation.is_none(), "{}", violation.unwrap());
}

/// Contention with commits on: two issuers race for the one matching node
/// with `k = 1`. The winner holds it committed, the loser gives up, and
/// the run is clean. A node committed to the loser instead — what a double
/// grant would leave — is `unheld-result` for the winner.
#[test]
fn a_node_committed_to_the_losing_query_is_an_unheld_result() {
    use rbay_check::invariants::{check_quiescent, InvariantCtx};
    use rbay_check::Violation;
    use rbay_core::{Federation, Hold};
    use rbay_query::AttrValue;
    use simnet::{NodeAddr, SimDuration, SiteId, Topology};

    let mut fed = Federation::new(Topology::single_site(6, 0.5), 7);
    assert!(fed.config().commit_results);
    let holder = NodeAddr(3);
    fed.post_resource(holder, "GPU", AttrValue::Bool(true));
    fed.settle();
    fed.run_maintenance(2, SimDuration::from_millis(250));
    fed.settle();
    let ids = [NodeAddr(1), NodeAddr(2)].map(|origin| {
        let id = fed.issue_query(origin, "SELECT 1 FROM * WHERE GPU = true", None);
        (origin, id.unwrap())
    });
    fed.settle();
    let satisfied = |(origin, id): (NodeAddr, _)| fed.query_record(origin, id).unwrap().satisfied;
    let [(winner, won), (_, lost)] = match ids.map(satisfied) {
        [true, false] => ids,
        [false, true] => [ids[1], ids[0]],
        both => panic!("one query must win the node: {both:?}"),
    };
    assert_eq!(
        fed.node(holder).host.hold,
        Some(Hold::Committed { by: won })
    );

    let topic = fed.node(holder).host.tree_topic("GPU=true", SiteId(0));
    let ctx = InvariantCtx::new(topic, vec![holder]);
    let violation = check_quiescent(&fed, &ctx);
    assert!(violation.is_none(), "{}", violation.unwrap());

    fed.sim_mut().actor_mut(holder).host.hold = Some(Hold::Committed { by: lost });
    assert_eq!(
        check_quiescent(&fed, &ctx),
        Some(Violation::UnheldResult {
            origin: winner,
            seq: won.seq()
        })
    );
}

/// `kept-corpse`: once the detector's budget of rounds has passed, no
/// live node holds a crashed peer — and one that does (here: taught the
/// corpse again behind the detector's back) is reported.
#[test]
fn a_corpse_kept_past_the_heartbeat_budget_is_a_violation() {
    use rbay_check::invariants::{check_quiescent, InvariantCtx};
    use rbay_check::Violation;
    use rbay_core::{Federation, RbayConfig};
    use rbay_query::AttrValue;
    use simnet::{NodeAddr, SimDuration, SimTime, SiteId, Topology};

    let cfg = RbayConfig {
        failure_detection: true,
        heartbeat_timeout: SimDuration::from_millis(400),
        ..RbayConfig::default()
    };
    let mut fed = Federation::with_config(Topology::single_site(6, 0.5), 7, cfg);
    let holders: Vec<NodeAddr> = (1..6).map(NodeAddr).collect();
    for &h in &holders {
        fed.post_resource(h, "GPU", AttrValue::Bool(true));
    }
    fed.settle();
    fed.run_maintenance(2, SimDuration::from_millis(250));
    let corpse = NodeAddr(5);
    let its_info = fed.node(corpse).pastry.info();
    fed.sim_mut().fail_node(corpse);
    fed.run_maintenance(10, SimDuration::from_millis(250));
    fed.settle();

    let topic = fed.node(NodeAddr(0)).host.tree_topic("GPU=true", SiteId(0));
    let ctx = InvariantCtx::new(topic, holders);
    let violation = check_quiescent(&fed, &ctx);
    assert!(violation.is_none(), "{}", violation.unwrap());

    let holder = NodeAddr(2);
    fed.sim_mut()
        .schedule_call(SimTime::ZERO, holder, move |node, ctx| {
            node.pastry.revive(corpse);
            node.pastry.insert_peer(ctx, its_info);
        });
    fed.settle();
    assert_eq!(
        check_quiescent(&fed, &ctx),
        Some(Violation::KeptCorpse {
            holder,
            corpse,
            rounds: 10
        })
    );
}

/// The root-crash-mid-query scenario reaches the re-route: in the default
/// order the querier's probe meets the crashed root, a detector routes its
/// copy again when it declares the root, and the query is answered long
/// before its timeout, with no invariant tripped.
#[test]
fn a_probe_lost_with_the_root_is_rerouted_in_the_checked_scenario() {
    let spec = CheckSpec::root_crash_mid_query(5, 11);
    let mut p = spec.prepare();
    let obs = p.fed.enable_obs(1 << 16);
    p.fed
        .sim_mut()
        .run_explored(&mut EarliestFirst, runner::WINDOW, runner::MAX_STEPS as u64);
    assert!(
        obs.snapshot().count("reroute") >= 1,
        "nothing was re-routed"
    );
    let rec = p.fed.query_record(p.origin, p.query).expect("issued");
    assert!(rec.satisfied, "{rec:?}");
    let took = rec.completed_at.unwrap().saturating_since(rec.issued_at);
    assert!(took < p.fed.config().query_timeout, "took {took}");
    let violation = rbay_check::invariants::check_quiescent(&p.fed, &p.ctx);
    assert!(violation.is_none(), "{}", violation.unwrap());
}

/// `copy-owes-answer`: a probe routed through a hop whose ping is
/// outstanding is kept beside that ping; burying the hop behind the
/// detector's back leaves the copy beside a corpse, and that is reported.
#[test]
fn a_copy_kept_beside_a_buried_peer_is_a_violation() {
    use rbay_check::invariants::copy_owes_answer;
    use rbay_check::Violation;
    use rbay_core::{Federation, RbayConfig};
    use rbay_query::AttrValue;
    use simnet::{NodeAddr, SimDuration, SiteId, Topology};

    let cfg = RbayConfig {
        failure_detection: true,
        heartbeat_timeout: SimDuration::from_millis(400),
        ..RbayConfig::default()
    };
    let mut fed = Federation::with_config(Topology::single_site(6, 0.5), 7, cfg);
    for h in (1..6).map(NodeAddr) {
        fed.post_resource(h, "GPU", AttrValue::Bool(true));
    }
    fed.settle();
    fed.run_maintenance(2, SimDuration::from_millis(250));
    fed.settle();
    let key = fed
        .node(NodeAddr(0))
        .host
        .tree_topic("GPU=true", SiteId(0))
        .key();
    let (holder, hop) = (0..6)
        .map(NodeAddr)
        .find_map(|n| Some((n, fed.node(n).pastry.next_hop(key, Some(SiteId(0)))?.addr)))
        .expect("someone routes toward the root");
    // A round pings every leaf-set peer; the probe that follows in the
    // same instant leaves through a hop that owes its answer.
    fed.schedule_maintenance(1, SimDuration::from_millis(250));
    fed.probe_tree_stats(holder, "GPU=true", SiteId(0));
    let now = fed.sim().now();
    fed.run_until(now);
    let kept: Vec<_> = fed.node(holder).host.kept_copies().collect();
    assert_eq!(kept, [(hop, 1)]);
    assert_eq!(copy_owes_answer(&fed), None);

    fed.sim_mut().schedule_call(now, holder, move |node, ctx| {
        node.pastry.handle_failure(ctx, hop);
    });
    fed.run_until(now);
    assert_eq!(
        copy_owes_answer(&fed),
        Some(Violation::CopyOwesAnswer {
            holder,
            peer: hop,
            copies: 1
        })
    );
}

/// `site-probe-bounded`: once a query is answered no node keeps its probe
/// step; one kept past the query timeout (its probes lost, and nothing
/// added after it), or by the querier for its completed query, is
/// reported.
#[test]
fn a_probe_step_kept_past_its_bound_is_a_violation() {
    use rbay_check::invariants::site_probe_bounded;
    use rbay_check::runner::WINDOW;
    use rbay_check::Violation;
    use rbay_core::{Federation, QueryId, RbayPayload, SearchState};
    use rbay_query::AttrValue;
    use scribe::ScribeHost;
    use simnet::{NodeAddr, SimDuration, Topology};
    use std::rc::Rc;

    let mut fed = Federation::new(Topology::single_site(6, 0.5), 7);
    fed.post_resource(NodeAddr(3), "GPU", AttrValue::Bool(true));
    fed.settle();
    let querier = NodeAddr(1);
    let id = fed
        .issue_query(querier, "SELECT 1 FROM * WHERE GPU = true", None)
        .unwrap();
    fed.settle();
    let query = Rc::clone(&fed.query_record(querier, id).unwrap().query);
    assert!(fed.query_record(querier, id).unwrap().satisfied);
    assert_eq!(site_probe_bounded(&fed), None);

    // `holder` enters the site for `id`, and the probes it sends are lost.
    let enter = |fed: &mut Federation, holder: NodeAddr, id: QueryId| {
        let state = Box::new(SearchState {
            query_id: id,
            reply_to: id.origin(),
            query: Rc::clone(&query),
            password: None,
            slots: ThinVec::new(),
        });
        let trees = vec!["GPU=true".to_owned()];
        let now = fed.sim().now();
        fed.control_at(now, holder, move |h| {
            h.on_direct(id.origin(), RbayPayload::SiteSearch { state, trees });
            h.ops.clear();
        });
        fed.run_until(now);
    };
    let (gateway, other) = (NodeAddr(4), QueryId::new(NodeAddr(2), 99));
    enter(&mut fed, gateway, other);
    let t0 = fed.sim().now();
    fed.run_until(t0 + fed.config().query_timeout + WINDOW);
    assert_eq!(site_probe_bounded(&fed), None, "within the bound");
    fed.run_until(fed.sim().now() + SimDuration::from_millis(1));
    let stale = Violation::SiteProbeBounded {
        holder: gateway,
        origin: other.origin(),
        seq: other.seq(),
    };
    assert_eq!(site_probe_bounded(&fed), Some(stale));
    // The next entry there drops it.
    enter(&mut fed, gateway, QueryId::new(NodeAddr(2), 100));
    assert_eq!(site_probe_bounded(&fed), None);

    enter(&mut fed, querier, id);
    let completed = Violation::SiteProbeBounded {
        holder: querier,
        origin: querier,
        seq: id.seq(),
    };
    assert_eq!(site_probe_bounded(&fed), Some(completed));
}
