//! Exploration schedulers: systematic and randomized drivers for the
//! engine's exploration mode ([`crate::Simulation::enable_exploration`]).
//!
//! The engine exposes the co-enabled ready set each step; the schedulers
//! here decide what happens:
//!
//! * [`ExploreScheduler`] — iterative-deepening DFS over every choice at
//!   the first `depth` steps of a run, with a partial-order-reduction
//!   *sleep set* (Godefroid): after a branch rooted at choice `a` is
//!   exhausted, `a` is put to sleep for the sibling branches and stays
//!   asleep until some dependent (node-footprint-intersecting) choice
//!   fires, so of two orders of commuting events only one is explored.
//! * [`RandomScheduler`] — seeded random walk over the same choice space,
//!   the fallback for configurations too large to exhaust.
//! * [`ReplayScheduler`] — deterministically re-executes a recorded
//!   decision trace (a counterexample schedule), taking the default
//!   earliest-event order everywhere the trace is silent.
//!
//! Fault injection is part of the choice space: subject to a
//! [`FaultOpts`] budget, a scheduler may *drop* any in-flight delivery or
//! *crash* a node, so loss/churn interleavings are explored alongside
//! reorderings rather than bolted on.

use crate::engine::{Choice, EventDesc, Scheduler};
use crate::time::SimTime;
use crate::topology::NodeAddr;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The node footprint of a choice: the (at most two) nodes it touches.
/// Two choices with disjoint footprints commute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint(pub NodeAddr, pub NodeAddr);

impl Footprint {
    /// Footprint of a pending event.
    pub fn of(desc: &EventDesc) -> Footprint {
        let (a, b) = desc.kind.footprint();
        Footprint(a, b)
    }

    /// Whether the two footprints share a node (the choices are
    /// *dependent* — their order can matter).
    pub fn intersects(&self, other: &Footprint) -> bool {
        self.0 == other.0 || self.0 == other.1 || self.1 == other.0 || self.1 == other.1
    }
}

/// Budget for fault choices folded into the explored space.
#[derive(Debug, Clone)]
pub struct FaultOpts {
    /// Maximum deliveries dropped per run.
    pub max_drops: usize,
    /// Maximum nodes crashed per run.
    pub max_crashes: usize,
    /// Nodes eligible to crash (keep query origins and invariant
    /// witnesses out of this list).
    pub crashable: Vec<NodeAddr>,
    /// Faults are only offered while the earliest ready event is at or
    /// before this time. Bounding the fault window leaves the tail of the
    /// run for repair, so quiescence invariants (stale-child expiry,
    /// gossip convergence) are meaningful.
    pub horizon: SimTime,
}

impl Default for FaultOpts {
    fn default() -> Self {
        FaultOpts {
            max_drops: 0,
            max_crashes: 0,
            crashable: Vec::new(),
            horizon: SimTime::ZERO,
        }
    }
}

/// Enumerates the full choice list for one step, in canonical order:
/// fires by `(at, seq)` first (so index 0 is the default), then drops,
/// then crashes. `drops_used`/`crashed` are the per-run fault tallies.
fn enumerate_choices(
    ready: &[EventDesc],
    faults: &FaultOpts,
    drops_used: usize,
    crashed: &[NodeAddr],
) -> Vec<(Choice, Footprint)> {
    let mut out: Vec<(Choice, Footprint)> = ready
        .iter()
        .map(|e| (Choice::Fire(e.seq), Footprint::of(e)))
        .collect();
    let faults_open = ready.first().is_some_and(|e| e.at <= faults.horizon);
    if faults_open && drops_used < faults.max_drops {
        for e in ready.iter().filter(|e| e.kind.is_deliver()) {
            out.push((Choice::Drop(e.seq), Footprint::of(e)));
        }
    }
    if faults_open && crashed.len() < faults.max_crashes {
        for n in &faults.crashable {
            if !crashed.contains(n) {
                out.push((Choice::Crash(*n), Footprint(*n, *n)));
            }
        }
    }
    out
}

/// One DFS choice point: the (sleep-pruned) candidate list, the branch
/// currently being explored, and the sleep set inherited on entry.
struct ChoicePoint {
    candidates: Vec<(Choice, Footprint)>,
    cursor: usize,
    sleep: Vec<(Choice, Footprint)>,
}

/// Iterative-deepening DFS over bounded interleavings with sleep-set
/// partial-order reduction.
///
/// Drive it run by run: call [`ExploreScheduler::begin_run`], execute the
/// run with this as the [`Scheduler`], then [`ExploreScheduler::end_run`]
/// to backtrack to the next unexplored branch (`false` once the bounded
/// space is exhausted). Choices are branched only at the first `depth`
/// steps of a run; beyond the bound the default earliest-event order
/// applies. When a depth level is exhausted the bound doubles, up to
/// `max_depth` (classic iterative deepening — shallow interleavings are
/// re-visited, so deduplicate runs by their decision signature).
pub struct ExploreScheduler {
    faults: FaultOpts,
    stack: Vec<ChoicePoint>,
    depth: usize,
    max_depth: usize,
    exhausted: bool,
    runs: u64,
    // Per-run fault tallies, reset by `begin_run`.
    drops_used: usize,
    crashed: Vec<NodeAddr>,
}

impl ExploreScheduler {
    /// A new explorer branching at the first `initial_depth` steps,
    /// deepening up to `max_depth`.
    pub fn new(initial_depth: usize, max_depth: usize, faults: FaultOpts) -> Self {
        let initial = initial_depth.max(1);
        ExploreScheduler {
            faults,
            stack: Vec::new(),
            depth: initial.min(max_depth.max(1)),
            max_depth: max_depth.max(1),
            exhausted: false,
            runs: 0,
            drops_used: 0,
            crashed: Vec::new(),
        }
    }

    /// Resets per-run fault tallies. Call before every run.
    pub fn begin_run(&mut self) {
        self.drops_used = 0;
        self.crashed.clear();
    }

    /// Backtracks to the next unexplored branch. Returns false when the
    /// whole bounded space (at `max_depth`) has been explored.
    pub fn end_run(&mut self) -> bool {
        self.runs += 1;
        loop {
            match self.stack.last_mut() {
                None => {
                    if self.depth >= self.max_depth {
                        self.exhausted = true;
                        return false;
                    }
                    self.depth = self.depth.saturating_mul(2).min(self.max_depth);
                    return true;
                }
                Some(top) => {
                    top.cursor += 1;
                    if top.cursor < top.candidates.len() {
                        return true;
                    }
                    self.stack.pop();
                }
            }
        }
    }

    /// Completed runs so far.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Whether the bounded space has been fully explored.
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// The current branch-depth bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    fn bookkeep(&mut self, c: Choice) {
        match c {
            Choice::Drop(_) => self.drops_used += 1,
            Choice::Crash(n) => self.crashed.push(n),
            Choice::Fire(_) => {}
        }
    }
}

impl Scheduler for ExploreScheduler {
    fn choose(&mut self, step: usize, ready: &[EventDesc]) -> Option<Choice> {
        if ready.is_empty() {
            return None;
        }
        // Replaying the decision prefix of the current branch.
        if step < self.stack.len() {
            let cp = &self.stack[step];
            let (c, _) = cp.candidates[cp.cursor];
            self.bookkeep(c);
            return Some(c);
        }
        // A new choice point, while within the branch-depth bound.
        if step == self.stack.len() && self.stack.len() < self.depth {
            // Sleep set on entry: the parent's sleep set plus its already
            // explored siblings, minus everything dependent on the
            // parent's chosen action (dependent choices wake up).
            let sleep: Vec<(Choice, Footprint)> = match self.stack.last() {
                None => Vec::new(),
                Some(p) => {
                    let (_, chosen_fp) = p.candidates[p.cursor];
                    p.sleep
                        .iter()
                        .chain(p.candidates[..p.cursor].iter())
                        .filter(|(_, f)| !f.intersects(&chosen_fp))
                        .cloned()
                        .collect()
                }
            };
            let all = enumerate_choices(ready, &self.faults, self.drops_used, &self.crashed);
            let candidates: Vec<(Choice, Footprint)> = all
                .into_iter()
                .filter(|(c, _)| !sleep.iter().any(|(s, _)| s == c))
                .collect();
            let Some(&(first, _)) = candidates.first() else {
                // Everything enabled is asleep: this state is covered by a
                // sibling branch. Prune the run.
                return None;
            };
            self.stack.push(ChoicePoint {
                candidates,
                cursor: 0,
                sleep,
            });
            self.bookkeep(first);
            return Some(first);
        }
        // Beyond the bound: default order.
        Some(Choice::Fire(ready[0].seq))
    }
}

/// Seeded random walk over the same choice space — the fallback for
/// configurations too large to exhaust. Each step fires a uniformly
/// random ready event, or (with probability `p_fault`, budget allowing)
/// applies a random fault.
pub struct RandomScheduler {
    rng: SmallRng,
    faults: FaultOpts,
    /// Per-step probability of choosing a fault over a fire, when the
    /// budget allows one.
    pub p_fault: f64,
    drops_used: usize,
    crashed: Vec<NodeAddr>,
}

impl RandomScheduler {
    /// A new random walk (one per run; derive the seed from the run
    /// index for reproducibility).
    pub fn new(seed: u64, faults: FaultOpts, p_fault: f64) -> Self {
        RandomScheduler {
            rng: SmallRng::seed_from_u64(seed),
            faults,
            p_fault,
            drops_used: 0,
            crashed: Vec::new(),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn choose(&mut self, _step: usize, ready: &[EventDesc]) -> Option<Choice> {
        if ready.is_empty() {
            return None;
        }
        let all = enumerate_choices(ready, &self.faults, self.drops_used, &self.crashed);
        let n_fires = ready.len();
        let c = if all.len() > n_fires && self.rng.gen_bool(self.p_fault) {
            all[self.rng.gen_range(n_fires..all.len())].0
        } else {
            all[self.rng.gen_range(0..n_fires)].0
        };
        match c {
            Choice::Drop(_) => self.drops_used += 1,
            Choice::Crash(n) => self.crashed.push(n),
            Choice::Fire(_) => {}
        }
        Some(c)
    }
}

/// Replays a recorded decision trace: at each listed step the recorded
/// choice applies (if still applicable — shrunk schedules may reference
/// events that no longer exist, which silently fall back to the
/// default); every other step takes the default earliest-event order.
pub struct ReplayScheduler {
    directives: BTreeMap<usize, Choice>,
}

impl ReplayScheduler {
    /// A replayer for the given `(step, choice)` directives.
    pub fn new(directives: impl IntoIterator<Item = (usize, Choice)>) -> Self {
        ReplayScheduler {
            directives: directives.into_iter().collect(),
        }
    }
}

impl Scheduler for ReplayScheduler {
    fn choose(&mut self, step: usize, ready: &[EventDesc]) -> Option<Choice> {
        if ready.is_empty() {
            return None;
        }
        if let Some(&c) = self.directives.get(&step) {
            let applicable = match c {
                Choice::Fire(s) => ready.iter().any(|e| e.seq == s),
                Choice::Drop(s) => ready.iter().any(|e| e.seq == s && e.kind.is_deliver()),
                Choice::Crash(_) => true,
            };
            if applicable {
                return Some(c);
            }
        }
        Some(Choice::Fire(ready[0].seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{
        Actor, Context, EarliestFirst, MessageSize, Simulation, TimerToken, TraceEvent,
    };
    use crate::time::{SimDuration, SimTime};
    use crate::topology::Topology;
    use crate::transport::Transport;
    use std::collections::BTreeSet;

    #[derive(Debug)]
    struct Token(u32);
    impl MessageSize for Token {}

    /// Records the order in which its messages arrive.
    #[derive(Default)]
    struct Sink {
        seen: Vec<u32>,
    }
    impl Actor for Sink {
        type Msg = Token;
        fn on_message(&mut self, _ctx: &mut Context<'_, Token>, _from: NodeAddr, msg: Token) {
            self.seen.push(msg.0);
        }
    }

    /// Two concurrent sends to the SAME receiver plus one to a disjoint
    /// node: dependent events branch, the independent one is slept.
    fn three_message_sim(seed: u64) -> Simulation<Sink> {
        let mut sim = Simulation::new(Topology::single_site(4, 0.0), seed, |_| Sink::default());
        sim.schedule_call(SimTime::ZERO, NodeAddr(0), |_, ctx| {
            ctx.send(NodeAddr(2), Token(10));
            ctx.send(NodeAddr(3), Token(30));
        });
        sim.schedule_call(SimTime::ZERO, NodeAddr(1), |_, ctx| {
            ctx.send(NodeAddr(2), Token(11));
        });
        sim
    }

    fn run_signature(sim: &Simulation<Sink>) -> Vec<Vec<u32>> {
        (0..4u32)
            .map(|i| sim.actor(NodeAddr(i)).seen.clone())
            .collect()
    }

    /// Also across a crash: a timer pending on the node that dies mid-run
    /// fires in neither mode, so neither trace may claim it.
    #[test]
    fn explored_default_order_matches_normal_run() {
        let with_timers = |mut sim: Simulation<Sink>| {
            for node in [NodeAddr(2), NodeAddr(3)] {
                sim.schedule_call(SimTime::ZERO, node, |_, ctx| {
                    ctx.set_timer(SimDuration::from_millis(5), TimerToken(1));
                });
            }
            sim.enable_trace(64);
            sim
        };
        let crash_at = SimTime::from_millis(1);

        let mut normal = with_timers(three_message_sim(7));
        normal.run_until(crash_at);
        normal.fail_node(NodeAddr(2));
        normal.run_until_idle();

        let mut explored = with_timers(three_message_sim(7));
        explored.enable_exploration();
        explored.run_until(crash_at);
        explored.fail_node(NodeAddr(2));
        let mut sched = EarliestFirst;
        explored.run_explored(&mut sched, SimDuration::from_millis(1), 1_000);

        let timers = |sim: &Simulation<Sink>| {
            let is_timer = |e: &&TraceEvent| matches!(e, TraceEvent::Timer { .. });
            sim.trace().iter().filter(is_timer).count()
        };
        assert_eq!(timers(&normal), 1, "node 3's only");
        assert_eq!(normal.trace(), explored.trace());
        assert_eq!(run_signature(&normal), run_signature(&explored));
    }

    #[test]
    fn exhaustive_exploration_finds_both_orders_of_dependent_events() {
        // Tokens 10 and 11 race to node 2; token 30 goes to node 3 and
        // commutes with both. Exhaustive exploration must surface both
        // arrival orders at node 2; sleep sets should spare us from also
        // permuting the independent token 30 against each.
        let mut sched = ExploreScheduler::new(8, 8, FaultOpts::default());
        let mut orders: BTreeSet<Vec<u32>> = BTreeSet::new();
        let mut runs = 0u64;
        loop {
            sched.begin_run();
            let mut sim = three_message_sim(7);
            sim.enable_exploration();
            sim.run_explored(&mut sched, SimDuration::from_millis(1), 1_000);
            if sim.explore_pending() == 0 {
                orders.insert(sim.actor(NodeAddr(2)).seen.clone());
                // Every complete run delivers all three tokens.
                assert_eq!(sim.actor(NodeAddr(3)).seen, vec![30]);
            }
            runs += 1;
            assert!(runs < 1_000, "exploration did not terminate");
            if !sched.end_run() {
                break;
            }
        }
        assert!(sched.exhausted());
        assert_eq!(
            orders,
            BTreeSet::from([vec![10, 11], vec![11, 10]]),
            "both orders of the racing pair, after {runs} runs"
        );
        // Without reduction the 3 concurrent deliveries (plus the two
        // initial calls) would give 3! = 6 complete interleavings at the
        // delivery layer alone; sleep sets must prune some of the space.
        assert!(
            runs < 30,
            "sleep sets should bound the run count, got {runs}"
        );
    }

    #[test]
    fn drop_faults_are_explored_within_budget() {
        let faults = FaultOpts {
            max_drops: 1,
            horizon: SimTime::from_secs(1),
            ..FaultOpts::default()
        };
        let mut sched = ExploreScheduler::new(8, 8, faults);
        let mut saw_loss = false;
        let mut runs = 0u64;
        loop {
            sched.begin_run();
            let mut sim = three_message_sim(7);
            sim.enable_exploration();
            sim.run_explored(&mut sched, SimDuration::from_millis(1), 1_000);
            if sim.explore_pending() == 0 && sim.actor(NodeAddr(2)).seen.len() < 2 {
                saw_loss = true;
            }
            runs += 1;
            assert!(runs < 5_000, "exploration did not terminate");
            if !sched.end_run() {
                break;
            }
        }
        assert!(saw_loss, "some run must drop a delivery to node 2");
    }

    #[test]
    fn crash_choice_discards_pending_traffic() {
        let faults = FaultOpts {
            max_crashes: 1,
            crashable: vec![NodeAddr(2)],
            horizon: SimTime::from_secs(1),
            ..FaultOpts::default()
        };
        let mut sim = three_message_sim(3);
        sim.enable_exploration();
        // Force the crash immediately: node 2 never sees its tokens.
        let ready = sim.explore_ready(SimDuration::from_millis(1));
        assert!(!ready.is_empty());
        let all = enumerate_choices(&ready, &faults, 0, &[]);
        let crash = all
            .iter()
            .find(|(c, _)| matches!(c, Choice::Crash(_)))
            .expect("crash offered");
        sim.explore_apply(crash.0);
        sim.run_until_idle();
        assert!(sim.actor(NodeAddr(2)).seen.is_empty());
        assert_eq!(sim.actor(NodeAddr(3)).seen, vec![30]);
    }

    #[test]
    fn replay_reproduces_a_recorded_divergence() {
        // Find a run where node 2 sees [11, 10] (non-default order), then
        // replay its divergent directives and get the same outcome.
        let mut sched = ExploreScheduler::new(8, 8, FaultOpts::default());
        let recorded = loop {
            sched.begin_run();
            let mut sim = three_message_sim(7);
            sim.enable_exploration();
            let mut decisions = Vec::new();
            let mut step = 0usize;
            loop {
                let ready = sim.explore_ready(SimDuration::from_millis(1));
                if ready.is_empty() {
                    break;
                }
                let Some(c) = sched.choose(step, &ready) else {
                    break;
                };
                if c != Choice::Fire(ready[0].seq) {
                    decisions.push((step, c));
                }
                sim.explore_apply(c);
                step += 1;
            }
            if sim.explore_pending() == 0 && sim.actor(NodeAddr(2)).seen == vec![11, 10] {
                break decisions;
            }
            assert!(sched.end_run(), "target interleaving exists");
        };
        assert!(
            !recorded.is_empty(),
            "non-default order requires divergence"
        );

        let mut replayer = ReplayScheduler::new(recorded);
        let mut sim = three_message_sim(7);
        sim.enable_exploration();
        sim.run_explored(&mut replayer, SimDuration::from_millis(1), 1_000);
        assert_eq!(sim.actor(NodeAddr(2)).seen, vec![11, 10]);
    }

    #[test]
    fn random_scheduler_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut sched = RandomScheduler::new(
                seed,
                FaultOpts {
                    max_drops: 1,
                    horizon: SimTime::from_secs(1),
                    ..FaultOpts::default()
                },
                0.2,
            );
            let mut sim = three_message_sim(9);
            sim.enable_exploration();
            sim.run_explored(&mut sched, SimDuration::from_millis(1), 1_000);
            run_signature(&sim)
        };
        assert_eq!(run(5), run(5));
    }
}
