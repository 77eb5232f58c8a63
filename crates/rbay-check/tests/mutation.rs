//! Mutation smoke: re-introduce each of the four PR-4 tree-repair bugs
//! (feature `seeded-bugs`) and assert the checker finds every one within
//! a bounded budget, that each counterexample survives a `.schedule`
//! round trip and replays to the same violation, and that shrinking
//! keeps the violation alive.
//!
//! The seeded-bug switch is process-global, so all four mutants run
//! sequentially inside ONE `#[test]`.

#![cfg(feature = "seeded-bugs")]

use rbay_check::{explore_random, replay, shrink, CheckSpec, ScheduleFile};

const BUGS: [(u8, &str); 4] = [
    // Reparent omits the Leave to the old parent: the member stays in
    // two live children sets -> double-counted aggregate.
    (1, "dual-attachment"),
    // NotChild NACK ignored: the child keeps a parent that disowned it.
    (2, "detached-attachment"),
    // Peers never unsuspected on traffic: one missed heartbeat evicts a
    // live peer forever.
    (3, "evicted-live-peer"),
    // Fragment-root demotion disabled: two live roots per topic.
    (4, "multiple-roots"),
];

#[test]
fn checker_detects_all_four_seeded_pr4_bugs() {
    // Bugs 1, 2 and 4 only show once a live peer is declared dead, and
    // any message settles a ping: a false positive takes the loss or late
    // arrival of everything a peer sends in a round (five messages from
    // the root to a child here), not of one `Pong`. That is deeper than
    // the bounded DFS branches, so the search is the seeded random walk,
    // which reorders a whole round freely, with a drop budget to match.
    let mut spec = CheckSpec::subscribe_fail_repair(3, 7);
    spec.max_drops = 6;

    for (bug, expected_kind) in BUGS {
        scribe::set_seeded_bug(bug);
        let report = explore_random(&spec, 5_000, 0.3);
        scribe::set_seeded_bug(0);

        let cx = report
            .violations
            .first()
            .unwrap_or_else(|| panic!("seeded bug {bug} not detected in {} runs", report.runs));
        assert_eq!(
            cx.violation.kind(),
            expected_kind,
            "seeded bug {bug} tripped the wrong oracle: {}",
            cx.violation
        );

        // The counterexample must survive a text round trip and replay
        // deterministically to the same violation.
        let schedule = cx.to_schedule(&spec);
        let text = schedule.render();
        let parsed = ScheduleFile::parse(&text).expect("rendered schedule parses");

        scribe::set_seeded_bug(bug);
        let replayed = replay(&parsed);
        scribe::set_seeded_bug(0);
        assert_eq!(
            replayed.as_ref().map(|v| v.kind()),
            Some(expected_kind),
            "seeded bug {bug}: replay of {text:?} did not reproduce"
        );

        // Shrinking must keep the violation alive and never grow the
        // schedule.
        scribe::set_seeded_bug(bug);
        let reduced = shrink(&parsed);
        let re_replayed = replay(&reduced);
        scribe::set_seeded_bug(0);
        assert!(reduced.directives.len() <= parsed.directives.len());
        assert_eq!(
            re_replayed.as_ref().map(|v| v.kind()),
            Some(expected_kind),
            "seeded bug {bug}: shrunk schedule no longer reproduces"
        );
    }
}
