//! What Fig. 8a and Fig. 8b share beside their core, `rbay-check`'s
//! [`Fig8Params`]: the routing invariant's verdict and the engine
//! throughput line.

use rbay_bench::{emit_schedule, HarnessOpts};
use rbay_check::{Fig8Params, Scenario, ScheduleFile, Violation};

/// Exactly-once delivery is the routing invariant. Each run that broke it
/// dumps a schedule replayable through `rbay-check replay`, and the
/// experiment fails.
pub fn require_exactly_once(
    opts: &HarnessOpts,
    runs: impl Iterator<Item = (Fig8Params, Option<Violation>)>,
) {
    let mut lost = false;
    for (params, v) in runs {
        let Some(v) = v else { continue };
        eprintln!(
            "INVARIANT VIOLATION ({} nodes, seed {}): {v}",
            params.nodes, params.seed
        );
        emit_schedule(
            opts,
            &ScheduleFile {
                spec: Scenario::Fig8(params),
                violation: Some(v.kind().to_string()),
                directives: Vec::new(),
            },
        );
        lost = true;
    }
    if lost {
        crate::fail("probes were lost or duplicated in routing");
    }
}

/// Simulation-loop throughput: events per wall-clock second (0 when the
/// loop took no measurable time).
pub fn events_per_sec(events: u64, wall_secs: f64) -> f64 {
    if wall_secs > 0.0 {
        events as f64 / wall_secs
    } else {
        0.0
    }
}

/// The `[engine]` throughput line, on stderr: it is wall clock, and
/// stdout stays deterministic.
pub fn report_engine(events: u64, wall_secs: f64) {
    eprintln!(
        "\n[engine] {events} events in {wall_secs:.3}s of simulation loop = {:.0} events/sec",
        events_per_sec(events, wall_secs)
    );
}
