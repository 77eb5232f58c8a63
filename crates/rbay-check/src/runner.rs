//! The check drivers: systematic exploration, deterministic replay, and
//! delta-debugging shrink.
//!
//! Every run rebuilds the scenario from scratch ([`CheckSpec::prepare`])
//! and executes the explored window step by step: ask the scheduler for
//! a choice over the co-enabled ready set, apply it, evaluate the step
//! invariants, and — once the event store drains — the quiescence
//! oracles. Because the engine is deterministic, a run is fully
//! identified by its divergences from the default earliest-event order,
//! which is all a `.schedule` file records.

use crate::invariants::{self, StepTracker, Violation};
use crate::scenario::{run_churn_default, CheckSpec, Prepared, Scenario};
use crate::schedule::ScheduleFile;
use simnet::{
    Actor, Choice, ExploreScheduler, NetStats, RandomScheduler, ReplayScheduler, Scheduler,
    SimDuration, SimTime, Simulation,
};
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Co-enabled window: events within this span of the earliest pending
/// event are considered concurrent and may be reordered. Half a
/// heartbeat round keeps reorderings time-faithful (rounds don't swap).
pub const WINDOW: SimDuration = SimDuration::from_millis(5);

/// Per-run step budget; a run that exceeds it is a liveness violation.
pub const MAX_STEPS: usize = 6_000;

/// One executed run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Steps executed.
    pub steps: usize,
    /// Divergences from the default order, in step order.
    pub decisions: Vec<(usize, Choice)>,
    /// The violation, if the run tripped an oracle.
    pub violation: Option<Violation>,
    /// Whether the event store drained (a complete run).
    pub quiescent: bool,
    /// Whether the scheduler pruned the run (sleep-set subsumption) —
    /// pruned runs are incomplete and carry no verdict.
    pub pruned: bool,
}

impl RunOutcome {
    fn signature(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.decisions.hash(&mut h);
        h.finish()
    }
}

/// Executes one run of `spec` under `sched`.
pub fn run_one(spec: &CheckSpec, sched: &mut dyn Scheduler) -> RunOutcome {
    run_prepared(&mut spec.prepare(), sched)
}

/// Executes one already-prepared run under `sched`. The CLI uses this
/// directly so it can force obs tracing on before a replay.
pub fn run_prepared(p: &mut Prepared, sched: &mut dyn Scheduler) -> RunOutcome {
    let mut tracker = StepTracker::new(&p.ctx);
    let mut decisions = Vec::new();
    let mut violation = None;
    let mut pruned = false;
    let mut quiescent = false;
    let mut steps = 0usize;

    while steps < MAX_STEPS {
        let ready = p.fed.sim_mut().explore_ready(WINDOW);
        if ready.is_empty() {
            quiescent = true;
            break;
        }
        let Some(choice) = sched.choose(steps, &ready) else {
            pruned = true;
            break;
        };
        if choice != Choice::Fire(ready[0].seq) {
            decisions.push((steps, choice));
        }
        p.fed.sim_mut().explore_apply(choice);
        steps += 1;
        if let Some(v) = tracker.check(&p.fed, &p.ctx) {
            violation = Some(v);
            break;
        }
    }

    if violation.is_none() && !pruned {
        violation = if quiescent {
            invariants::check_quiescent(&p.fed, &p.ctx)
        } else {
            Some(Violation::NonQuiescent { steps })
        };
    }
    RunOutcome {
        steps,
        decisions,
        violation,
        quiescent,
        pruned,
    }
}

/// A violating run plus everything needed to reproduce it.
#[derive(Debug)]
pub struct Counterexample {
    /// The tripped invariant.
    pub violation: Violation,
    /// Divergent decisions reproducing it.
    pub decisions: Vec<(usize, Choice)>,
}

impl Counterexample {
    /// Serializes the counterexample to `.schedule` text.
    pub fn to_schedule(&self, spec: &CheckSpec) -> ScheduleFile {
        ScheduleFile {
            spec: Scenario::Explored(spec.clone()),
            violation: Some(self.violation.kind().to_string()),
            directives: self.decisions.clone(),
        }
    }
}

/// Knobs for [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreOpts {
    /// Initial DFS branching depth (iterative deepening doubles it).
    pub initial_depth: usize,
    /// Depth ceiling.
    pub max_depth: usize,
    /// Wall-clock budget.
    pub budget: Duration,
    /// Run-count ceiling.
    pub max_runs: u64,
    /// Stop at the first violation instead of cataloguing all of them.
    pub stop_at_first: bool,
    /// Stop once this many distinct complete interleavings have been
    /// observed (0 = unlimited).
    pub target_distinct: u64,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        ExploreOpts {
            initial_depth: 6,
            max_depth: 48,
            budget: Duration::from_secs(55),
            max_runs: u64::MAX,
            stop_at_first: true,
            target_distinct: 0,
        }
    }
}

/// Exploration summary.
#[derive(Debug)]
pub struct ExploreReport {
    /// Total runs (including pruned ones).
    pub runs: u64,
    /// Distinct complete interleavings (deduplicated by decision trace —
    /// iterative deepening revisits shallow prefixes).
    pub distinct: u64,
    /// Runs pruned by the sleep set.
    pub pruned: u64,
    /// Counterexamples found.
    pub violations: Vec<Counterexample>,
    /// Whether the bounded space was fully explored.
    pub exhausted: bool,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Systematically explores `spec`'s interleavings with iterative
/// deepening + sleep-set reduction under the given budgets.
pub fn explore(spec: &CheckSpec, opts: &ExploreOpts) -> ExploreReport {
    let faults = spec.prepare().faults;
    let mut sched = ExploreScheduler::new(opts.initial_depth, opts.max_depth, faults);
    let mut seen: HashSet<u64> = HashSet::new();
    let mut report = ExploreReport {
        runs: 0,
        distinct: 0,
        pruned: 0,
        violations: Vec::new(),
        exhausted: false,
        elapsed: Duration::ZERO,
    };
    let start = Instant::now();
    loop {
        sched.begin_run();
        let outcome = run_one(spec, &mut sched);
        report.runs += 1;
        if outcome.pruned {
            report.pruned += 1;
        } else if seen.insert(outcome.signature()) {
            report.distinct += 1;
        }
        if let Some(v) = outcome.violation {
            report.violations.push(Counterexample {
                violation: v,
                decisions: outcome.decisions,
            });
            if opts.stop_at_first {
                break;
            }
        }
        if !sched.end_run() {
            report.exhausted = true;
            break;
        }
        if report.runs >= opts.max_runs
            || (opts.target_distinct > 0 && report.distinct >= opts.target_distinct)
            || start.elapsed() >= opts.budget
        {
            break;
        }
    }
    report.elapsed = start.elapsed();
    report
}

/// Random-walk fallback for configurations too large to exhaust: `runs`
/// seeded walks with per-step fault probability `p_fault`.
pub fn explore_random(spec: &CheckSpec, runs: u64, p_fault: f64) -> ExploreReport {
    let faults = spec.prepare().faults;
    let mut seen: HashSet<u64> = HashSet::new();
    let mut report = ExploreReport {
        runs: 0,
        distinct: 0,
        pruned: 0,
        violations: Vec::new(),
        exhausted: false,
        elapsed: Duration::ZERO,
    };
    let start = Instant::now();
    for walk in 0..runs {
        let mut sched = RandomScheduler::new(spec.seed.wrapping_add(walk), faults.clone(), p_fault);
        let outcome = run_one(spec, &mut sched);
        report.runs += 1;
        if !outcome.pruned && seen.insert(outcome.signature()) {
            report.distinct += 1;
        }
        if let Some(v) = outcome.violation {
            report.violations.push(Counterexample {
                violation: v,
                decisions: outcome.decisions,
            });
            break;
        }
    }
    report.elapsed = start.elapsed();
    report
}

/// What a replayed run ended with: its verdict, and the clock and
/// counters a fixture's digest records.
#[derive(Debug)]
pub struct Replayed {
    /// The violation the run exhibits, if any.
    pub violation: Option<Violation>,
    /// Explored steps; the bench scenarios run without the explorer, 0.
    pub steps: usize,
    /// The simulated clock at the end.
    pub now: SimTime,
    /// The network's counters at the end.
    pub stats: NetStats,
}

impl Replayed {
    fn of<A: Actor>(violation: Option<Violation>, steps: usize, sim: &Simulation<A>) -> Self {
        let (now, stats) = (sim.now(), sim.stats().clone());
        Replayed {
            violation,
            steps,
            now,
            stats,
        }
    }
}

/// Replays a schedule deterministically. For explorable scenarios the
/// recorded divergences are re-applied step by step; a bench scenario
/// re-runs its experiment's core end to end.
pub fn replay(file: &ScheduleFile) -> Replayed {
    match &file.spec {
        Scenario::Explored(spec) => {
            let mut p = spec.prepare();
            let mut sched = ReplayScheduler::new(file.directives.iter().copied());
            let outcome = run_prepared(&mut p, &mut sched);
            Replayed::of(outcome.violation, outcome.steps, p.fed.sim())
        }
        Scenario::Churn(params) => {
            let st = run_churn_default(params);
            let violation = invariants::check_quiescent(&st.fed, &st.invariant_ctx());
            Replayed::of(violation, 0, st.fed.sim())
        }
        Scenario::Fig8(params) => {
            let sim = params.run(|_| {});
            Replayed::of(params.check(&sim), 0, &sim)
        }
    }
}

/// Delta-debugging shrink: greedily removes directives while the replay
/// still exhibits the same violation kind. Returns the reduced schedule
/// (at a local minimum: no single directive can be removed).
pub fn shrink(file: &ScheduleFile) -> ScheduleFile {
    let Some(target) = file.violation.clone() else {
        return file.clone();
    };
    let mut best = file.clone();
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < best.directives.len() {
            let mut candidate = best.clone();
            candidate.directives.remove(i);
            let still_fails = (replay(&candidate).violation).is_some_and(|v| v.kind() == target);
            if still_fails {
                best = candidate;
                reduced = true;
            } else {
                i += 1;
            }
        }
        if !reduced {
            return best;
        }
    }
}
