//! The discrete-event simulation engine.
//!
//! Protocol code is written against [`Actor`] (message/timer callbacks) and
//! [`Transport`] (send, timers, clock), which the [`Context`] handed to every
//! callback implements. The [`Simulation`] owns one actor per [`NodeAddr`]
//! and executes events in deterministic virtual-time order: runs with the
//! same seed produce identical traces.
//!
//! ## Hot path
//!
//! Every pending event lives in one [`CalendarQueue`] keyed on `(at, seq)`,
//! `seq` being the order events were scheduled in. A callback's send or
//! timer arm goes straight into the queue, which stores each event once,
//! in a slot of its payload slab, and orders only the 24-byte keys.
//! Message deliveries and timer fires — the overwhelming majority — carry
//! plain-data payloads, so scheduling and dispatching them allocates
//! nothing once the slab has grown to the pending count; only the rare
//! external [`Simulation::schedule_call`] closure is boxed.

use crate::queue::CalendarQueue;
use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeAddr, SiteId, Topology};
use crate::transport::Transport;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Application-chosen identifier distinguishing concurrent timers on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerToken(pub u64);

/// One recorded event, when tracing is enabled (see
/// [`Simulation::enable_trace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message was delivered.
    Deliver {
        /// Delivery time.
        at: SimTime,
        /// Sender.
        from: NodeAddr,
        /// Receiver.
        to: NodeAddr,
    },
    /// A timer fired.
    Timer {
        /// Firing time.
        at: SimTime,
        /// The timer's owner.
        node: NodeAddr,
        /// The token it was armed with.
        token: TimerToken,
    },
}

/// What a pending event is, as exposed to [`Scheduler`]s in exploration
/// mode. Payloads stay opaque; the kind carries exactly the node footprint
/// a partial-order reduction needs to decide commutativity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A message in flight from `from` to `to`.
    Deliver {
        /// Sender.
        from: NodeAddr,
        /// Receiver.
        to: NodeAddr,
    },
    /// A timer armed on `node`.
    Timer {
        /// The timer's owner.
        node: NodeAddr,
        /// The token it was armed with.
        token: TimerToken,
    },
    /// An external [`Simulation::schedule_call`] against `node`.
    Call {
        /// The call's target.
        node: NodeAddr,
    },
}

impl EventKind {
    /// The (at most two) nodes this event reads or writes.
    pub fn footprint(&self) -> (NodeAddr, NodeAddr) {
        match *self {
            EventKind::Deliver { from, to } => (from, to),
            EventKind::Timer { node, .. } | EventKind::Call { node } => (node, node),
        }
    }

    /// Whether this event touches `node`.
    pub fn touches(&self, node: NodeAddr) -> bool {
        let (a, b) = self.footprint();
        a == node || b == node
    }

    /// Whether the event is a message delivery (the only kind a fault
    /// injector may drop).
    pub fn is_deliver(&self) -> bool {
        matches!(self, EventKind::Deliver { .. })
    }
}

/// Descriptor of one pending event in exploration mode. The `seq` is the
/// event's identity: deterministic replay of the same decision prefix
/// reproduces the same sequence numbers, so a recorded schedule can name
/// events by `seq` alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventDesc {
    /// Nominal (earliest) execution time.
    pub at: SimTime,
    /// Globally unique, deterministic sequence number.
    pub seq: u64,
    /// What the event is and which nodes it touches.
    pub kind: EventKind,
}

/// One decision a [`Scheduler`] can make about the ready set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Choice {
    /// Execute the pending event with this `seq`.
    Fire(u64),
    /// Drop the pending *delivery* with this `seq` (fault injection:
    /// message lost in flight).
    Drop(u64),
    /// Crash this node (fault injection; all its pending and future
    /// traffic is discarded).
    Crash(NodeAddr),
}

/// The "which ready event fires next" policy, abstracted.
///
/// In normal operation the calendar queue plays the role of a fixed
/// earliest-`(at, seq)` scheduler; in exploration mode
/// ([`Simulation::enable_exploration`]) the engine instead presents the
/// co-enabled ready set to a `Scheduler` and lets it pick — which is what
/// lets `rbay-check` enumerate interleavings instead of sampling one per
/// seed. Returning `None` abandons the run (used by explorers to prune
/// redundant branches).
pub trait Scheduler {
    /// Picks the next action, given the ready set sorted by `(at, seq)`
    /// (never empty). `step` counts decisions made so far this run.
    fn choose(&mut self, step: usize, ready: &[EventDesc]) -> Option<Choice>;
}

/// The default scheduling policy: always fire the earliest `(at, seq)`
/// event — exactly the total order the calendar queue produces, so a run
/// explored under `EarliestFirst` is byte-identical to a normal run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EarliestFirst;

impl Scheduler for EarliestFirst {
    fn choose(&mut self, _step: usize, ready: &[EventDesc]) -> Option<Choice> {
        ready.first().map(|e| Choice::Fire(e.seq))
    }
}

/// A simulated protocol participant.
///
/// One actor instance lives at each [`NodeAddr`]. All callbacks receive a
/// [`Context`] for sending messages and arming timers.
pub trait Actor: Sized {
    /// The message type exchanged between actors of this simulation.
    type Msg;

    /// The bytes [`NetStats`] charges for sending `msg`. The default, its
    /// in-memory size, suits messages without a wire encoding; an actor
    /// whose messages have one returns its length.
    fn wire_size(msg: &Self::Msg) -> usize {
        std::mem::size_of_val(msg)
    }

    /// Called when a message from `from` is delivered to this actor.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeAddr, msg: Self::Msg);

    /// Called when a timer armed with [`Transport::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, token: TimerToken) {
        let _ = (ctx, token);
    }
}

/// A deferred external call against one actor.
type CallFn<A> = Box<dyn FnOnce(&mut A, &mut Context<'_, <A as Actor>::Msg>)>;

/// The plain-data events a callback can cause: what a [`Context`]
/// schedules, so the per-message path never touches a boxed closure.
enum EventPayload<M> {
    Deliver {
        from: NodeAddr,
        to: NodeAddr,
        msg: M,
    },
    Timer {
        node: NodeAddr,
        token: TimerToken,
    },
}

/// One queued event: a payload, or an external
/// [`Simulation::schedule_call`] closure.
enum Entry<A: Actor> {
    Payload(EventPayload<A::Msg>),
    Call { node: NodeAddr, f: CallFn<A> },
}

impl<A: Actor> Entry<A> {
    fn kind(&self) -> EventKind {
        match *self {
            Entry::Payload(EventPayload::Deliver { from, to, .. }) => {
                EventKind::Deliver { from, to }
            }
            Entry::Payload(EventPayload::Timer { node, token }) => EventKind::Timer { node, token },
            Entry::Call { node, .. } => EventKind::Call { node },
        }
    }
}

/// Every pending event, and the counter that numbers them as they are
/// scheduled.
struct Events<A: Actor> {
    queue: CalendarQueue<Entry<A>>,
    /// Exploration store ([`Simulation::enable_exploration`]): when
    /// `Some`, pending events live here as `(at, seq, entry)` instead of
    /// in `queue`, so a [`Scheduler`] can fire them in any order.
    explore: Option<Vec<(SimTime, u64, Entry<A>)>>,
    seq: u64,
}

impl<A: Actor> Events<A> {
    /// Stores a newly scheduled event under the next sequence number — the
    /// one place that chooses between the calendar queue and the
    /// exploration store.
    fn enqueue(&mut self, at: SimTime, entry: Entry<A>) {
        let seq = self.seq;
        self.seq += 1;
        match &mut self.explore {
            Some(store) => store.push((at, seq, entry)),
            None => self.queue.push(at, seq, entry),
        }
    }
}

/// [`Events`] as a [`Context`] sees it: a context names the message type
/// only, not the actor's.
trait Schedule<M> {
    fn schedule(&mut self, at: SimTime, event: EventPayload<M>);
}

impl<A: Actor> Schedule<A::Msg> for Events<A> {
    fn schedule(&mut self, at: SimTime, event: EventPayload<A::Msg>) {
        self.enqueue(at, Entry::Payload(event));
    }
}

/// Everything an actor callback may touch besides its own state: the
/// simulator's [`Transport`], plus the actor's address and the topology.
///
/// Sends and timer arms go straight into the simulation's event queue,
/// numbered in the order the callback makes them. Nothing else is
/// scheduled while a callback runs, so the order stays deterministic.
pub struct Context<'a, M> {
    now: SimTime,
    self_addr: NodeAddr,
    topology: &'a Topology,
    rng: &'a mut SmallRng,
    stats: &'a mut NetStats,
    events: &'a mut dyn Schedule<M>,
    wire_size: fn(&M) -> usize,
}

impl<M> Context<'_, M> {
    /// This actor's own address.
    pub fn self_addr(&self) -> NodeAddr {
        self.self_addr
    }

    /// The shared topology (read-only).
    pub fn topology(&self) -> &Topology {
        self.topology
    }
}

impl<M> Transport<M> for Context<'_, M> {
    /// Sends `msg` to `to`; it is delivered after a latency sampled from the
    /// topology. Messages to failed nodes are dropped at delivery time, like
    /// packets to a crashed host.
    fn send(&mut self, to: NodeAddr, msg: M) {
        let from = self.self_addr;
        let cross = self.topology.site_of(from) != self.topology.site_of(to);
        self.stats.record_send((self.wire_size)(&msg), cross);
        // Fault injection: messages may be lost in flight.
        let loss = self.topology.loss_prob();
        if loss > 0.0 && rand::Rng::gen_bool(self.rng, loss) {
            self.stats.record_drop();
            return;
        }
        let lat = self.topology.sample_latency(from, to, self.rng);
        self.events
            .schedule(self.now + lat, EventPayload::Deliver { from, to, msg });
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        let node = self.self_addr;
        self.events
            .schedule(self.now + delay, EventPayload::Timer { node, token });
    }

    fn rtt_ms(&self, a: SiteId, b: SiteId) -> f64 {
        self.topology.rtt_ms(a, b)
    }
}

/// A deterministic discrete-event simulation over a fixed set of actors.
///
/// ```
/// use simnet::{Actor, Context, NodeAddr, Simulation, Topology, Transport};
///
/// struct Echo(u32);
/// #[derive(Debug)]
/// struct Ping;
/// impl Actor for Echo {
///     type Msg = Ping;
///     fn on_message(&mut self, _ctx: &mut Context<'_, Ping>, _from: NodeAddr, _msg: Ping) {
///         self.0 += 1;
///     }
/// }
///
/// let topo = Topology::single_site(2, 0.5);
/// let mut sim = Simulation::new(topo, 42, |_| Echo(0));
/// sim.schedule_call(simnet::SimTime::ZERO, NodeAddr(0), |_, ctx| {
///     ctx.send(NodeAddr(1), Ping);
/// });
/// sim.run_until_idle();
/// assert_eq!(sim.actor(NodeAddr(1)).0, 1);
/// ```
pub struct Simulation<A: Actor> {
    actors: Vec<A>,
    topology: Topology,
    events: Events<A>,
    now: SimTime,
    rng: SmallRng,
    stats: NetStats,
    failed: Vec<bool>,
    trace: Option<Vec<TraceEvent>>,
    trace_cap: usize,
    /// Wall-clock nanoseconds spent inside `run_*` loops. Kept out of
    /// [`NetStats`] so stats snapshots stay comparable across runs.
    wall_nanos: u64,
}

impl<A: Actor> Simulation<A> {
    /// Creates a simulation with one actor per topology address, built by
    /// `make` (called with each address in order), seeded deterministically.
    pub fn new(topology: Topology, seed: u64, mut make: impl FnMut(NodeAddr) -> A) -> Self {
        let n = topology.node_count();
        let actors = (0..n as u32).map(|i| make(NodeAddr(i))).collect();
        Simulation {
            actors,
            failed: vec![false; n],
            topology,
            events: Events {
                queue: CalendarQueue::new(),
                explore: None,
                seq: 0,
            },
            now: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(seed),
            stats: NetStats::default(),
            trace: None,
            trace_cap: 0,
            wall_nanos: 0,
        }
    }

    /// Switches the engine into exploration mode: every event already
    /// queued (and every event scheduled from now on) moves into a flat
    /// store from which a [`Scheduler`] may fire events in any order
    /// within a co-enabled window, drop deliveries, or crash nodes —
    /// the substrate of systematic interleaving checking.
    ///
    /// May be called at any point, so a scenario can run its setup phase
    /// on the fast calendar-queue path and only explore the interesting
    /// window. In exploration mode `run_until*`/`run_for` still work and
    /// follow the default earliest-`(at, seq)` order, and firing an event
    /// advances the clock to `max(now, at)` — an event deliberately held
    /// back past later events models a delayed delivery.
    pub fn enable_exploration(&mut self) {
        let Events { queue, explore, .. } = &mut self.events;
        if explore.is_none() {
            *explore = Some(std::iter::from_fn(|| queue.pop()).collect());
        }
    }

    /// Starts recording delivered messages and fired timers, keeping at
    /// most `capacity` events (older events are not evicted; recording
    /// simply stops at the cap, which keeps tracing O(1) per event).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Vec::with_capacity(capacity.min(1 << 20)));
        self.trace_cap = capacity;
    }

    /// The recorded trace so far (empty slice when tracing is off).
    pub fn trace(&self) -> &[TraceEvent] {
        self.trace.as_deref().unwrap_or(&[])
    }

    fn record_trace(&mut self, ev: TraceEvent) {
        if let Some(t) = &mut self.trace {
            if t.len() < self.trace_cap {
                t.push(ev);
            }
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology the simulation runs over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Adjusts the message-loss probability mid-run. Loss is sampled per
    /// send, so this opens or closes a fault-injection window immediately
    /// (e.g. lossy period, then a clean recovery phase).
    pub fn set_loss_prob(&mut self, p: f64) {
        self.topology.set_loss_prob(p);
    }

    /// Network statistics accumulated so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Wall-clock time spent executing events so far.
    pub fn wall_time(&self) -> Duration {
        Duration::from_nanos(self.wall_nanos)
    }

    /// Immutable access to the actor at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn actor(&self, addr: NodeAddr) -> &A {
        &self.actors[addr.index()]
    }

    /// Mutable access to the actor at `addr` (outside of callbacks).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn actor_mut(&mut self, addr: NodeAddr) -> &mut A {
        &mut self.actors[addr.index()]
    }

    /// Iterates over `(addr, actor)` pairs.
    pub fn actors(&self) -> impl Iterator<Item = (NodeAddr, &A)> {
        self.actors
            .iter()
            .enumerate()
            .map(|(i, a)| (NodeAddr(i as u32), a))
    }

    /// Marks `addr` as crashed: deliveries, timers, and calls targeting it
    /// are dropped until [`Simulation::revive_node`].
    pub fn fail_node(&mut self, addr: NodeAddr) {
        self.failed[addr.index()] = true;
    }

    /// Brings a crashed node back. Its actor state is as it was at failure.
    pub fn revive_node(&mut self, addr: NodeAddr) {
        self.failed[addr.index()] = false;
    }

    /// Whether `addr` is currently failed.
    pub fn is_failed(&self, addr: NodeAddr) -> bool {
        self.failed[addr.index()]
    }

    /// Schedules `f` to run on the actor at `node` at absolute time `at`
    /// (clamped to now if already past).
    pub fn schedule_call(
        &mut self,
        at: SimTime,
        node: NodeAddr,
        f: impl FnOnce(&mut A, &mut Context<'_, A::Msg>) + 'static,
    ) {
        let f = Box::new(f);
        self.events
            .enqueue(at.max(self.now), Entry::Call { node, f });
    }

    /// Removes the earliest `(at, seq)` event, unless it lies past
    /// `deadline` — the one place that chooses where the next event to run
    /// comes from.
    fn take_next(&mut self, deadline: Option<SimTime>) -> Option<(SimTime, u64, Entry<A>)> {
        let due = |at: SimTime| deadline.is_none_or(|d| at <= d);
        if self.events.explore.is_some() {
            self.explore_prune();
            let store = self.events.explore.as_mut()?;
            let i = (0..store.len()).min_by_key(|&i| (store[i].0, store[i].1))?;
            due(store[i].0).then(|| store.swap_remove(i))
        } else {
            let queue = &mut self.events.queue;
            let (at, _) = queue.peek_key()?;
            due(at).then(|| queue.pop().expect("peeked event exists"))
        }
    }

    /// Runs `f` against actor `node` with a live context; what it sends
    /// and arms is scheduled as it goes.
    fn dispatch(&mut self, node: NodeAddr, f: impl FnOnce(&mut A, &mut Context<'_, A::Msg>)) {
        let mut ctx = Context {
            now: self.now,
            self_addr: node,
            topology: &self.topology,
            rng: &mut self.rng,
            stats: &mut self.stats,
            events: &mut self.events,
            wire_size: A::wire_size,
        };
        f(&mut self.actors[node.index()], &mut ctx);
    }

    /// Discards exploration-store events that would be no-ops anyway
    /// (anything touching a crashed node), so the ready set presented to
    /// schedulers contains only events whose order can matter. Note this
    /// is eager relative to the normal path (which discards at pop time):
    /// a node revived *before* a pending delivery's timestamp would
    /// receive it on the normal path but not here, so exploration treats
    /// crashes as permanent.
    fn explore_prune(&mut self) {
        let Simulation {
            events,
            failed,
            stats,
            ..
        } = self;
        let Some(store) = &mut events.explore else {
            return;
        };
        store.retain(|(_, _, entry)| {
            let kind = entry.kind();
            let (a, b) = kind.footprint();
            let live = !failed[a.index()] && !failed[b.index()];
            if !live && kind.is_deliver() {
                stats.record_drop();
            }
            live
        });
    }

    /// The co-enabled ready set: every pending event whose timestamp lies
    /// within `window` of the earliest pending timestamp, sorted by
    /// `(at, seq)`. Events separated by more than the window are treated
    /// as causally ordered by time (a heartbeat due in 300ms cannot race
    /// a delivery due now), which keeps the branching factor at the scale
    /// of genuinely concurrent events.
    ///
    /// Returns an empty set when the simulation has quiesced. Only
    /// meaningful in exploration mode.
    pub fn explore_ready(&mut self, window: SimDuration) -> Vec<EventDesc> {
        self.explore_prune();
        let Some(store) = &self.events.explore else {
            return Vec::new();
        };
        let Some(min_at) = store.iter().map(|&(at, ..)| at).min() else {
            return Vec::new();
        };
        let horizon = min_at + window;
        let mut ready: Vec<EventDesc> = store
            .iter()
            .filter(|(at, ..)| *at <= horizon)
            .map(|&(at, seq, ref entry)| EventDesc {
                at,
                seq,
                kind: entry.kind(),
            })
            .collect();
        ready.sort_by_key(|d| (d.at, d.seq));
        ready
    }

    /// Applies one scheduler [`Choice`]. A fire executes the stored event
    /// with that `seq`, advancing the clock to `max(now, at)`; a drop loses
    /// the stored *delivery* with that `seq` in flight (timers and calls,
    /// which a network cannot lose, are refused). Returns false if the
    /// choice names no such pending event (replayed schedules tolerate
    /// vanished events that way).
    pub fn explore_apply(&mut self, choice: Choice) -> bool {
        let seq = match choice {
            Choice::Crash(node) => {
                self.fail_node(node);
                return true;
            }
            Choice::Fire(seq) | Choice::Drop(seq) => seq,
        };
        let Some(store) = &mut self.events.explore else {
            return false;
        };
        let Some(i) = store.iter().position(|&(_, s, _)| s == seq) else {
            return false;
        };
        if matches!(choice, Choice::Fire(_)) {
            let (at, _, entry) = store.swap_remove(i);
            self.now = self.now.max(at);
            self.execute(entry);
        } else if store[i].2.kind().is_deliver() {
            store.swap_remove(i);
            self.stats.record_drop();
        } else {
            return false;
        }
        true
    }

    /// Number of pending events in the exploration store (after pruning
    /// no-ops). Zero means the simulation has quiesced.
    pub fn explore_pending(&mut self) -> usize {
        self.explore_prune();
        self.events.explore.as_ref().map_or(0, |s| s.len())
    }

    /// Drives the simulation with `sched` until quiescence, the scheduler
    /// prunes the run, or `max_steps` decisions have been applied.
    /// Returns the number of steps taken. Requires exploration mode.
    pub fn run_explored(
        &mut self,
        sched: &mut dyn Scheduler,
        window: SimDuration,
        max_steps: u64,
    ) -> u64 {
        let mut n = 0;
        while n < max_steps {
            let ready = self.explore_ready(window);
            if ready.is_empty() {
                break;
            }
            let Some(choice) = sched.choose(n as usize, &ready) else {
                break;
            };
            if !self.explore_apply(choice) {
                break;
            }
            n += 1;
        }
        n
    }

    /// Executes events in `(at, seq)` order until none is left at or before
    /// `deadline` or `limit` events have run. Returns the number executed.
    fn run(&mut self, deadline: Option<SimTime>, limit: u64) -> u64 {
        let wall = Instant::now();
        let mut n = 0;
        while n < limit {
            let Some((at, _seq, entry)) = self.take_next(deadline) else {
                break;
            };
            self.now = self.now.max(at);
            self.execute(entry);
            n += 1;
        }
        self.wall_nanos += wall.elapsed().as_nanos() as u64;
        n
    }

    /// Executes events until the queue drains.
    ///
    /// # Panics
    ///
    /// Panics after 500 million events, which indicates a runaway protocol
    /// (e.g. an unbounded periodic timer with no stop condition).
    pub fn run_until_idle(&mut self) -> u64 {
        let limit = 500_000_000;
        let n = self.run(None, limit);
        assert!(
            n < limit,
            "simulation did not quiesce within {limit} events"
        );
        n
    }

    /// Executes events with timestamps `<= deadline`; the clock ends at
    /// `deadline` even if the queue drained earlier.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let n = self.run(Some(deadline), u64::MAX);
        self.now = self.now.max(deadline);
        n
    }

    /// Runs for `d` more virtual time.
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let deadline = self.now + d;
        self.run_until(deadline)
    }

    /// Runs one event, unless a node it needs has crashed.
    fn execute(&mut self, entry: Entry<A>) {
        self.stats.record_event();
        let at = self.now;
        match entry {
            Entry::Payload(EventPayload::Deliver { from, to, msg }) => {
                if self.failed[to.index()] || self.failed[from.index()] {
                    self.stats.record_drop();
                    return;
                }
                self.stats.record_delivery();
                self.record_trace(TraceEvent::Deliver { at, from, to });
                self.dispatch(to, move |a, ctx| a.on_message(ctx, from, msg));
            }
            Entry::Payload(EventPayload::Timer { node, token }) => {
                if !self.failed[node.index()] {
                    self.record_trace(TraceEvent::Timer { at, node, token });
                    self.dispatch(node, move |a, ctx| a.on_timer(ctx, token));
                }
            }
            Entry::Call { node, f } => {
                if !self.failed[node.index()] {
                    self.dispatch(node, f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[derive(Debug)]
    enum Msg {
        Ping(u32),
        Pong(#[allow(dead_code)] u32),
    }

    #[derive(Default)]
    struct PingPong {
        pings: u32,
        pongs: u32,
        last_timer: Option<TimerToken>,
    }

    impl Actor for PingPong {
        type Msg = Msg;
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeAddr, msg: Msg) {
            match msg {
                Msg::Ping(n) => {
                    self.pings += 1;
                    ctx.send(from, Msg::Pong(n));
                }
                Msg::Pong(_) => self.pongs += 1,
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, token: TimerToken) {
            self.last_timer = Some(token);
        }
    }

    fn two_node_sim() -> Simulation<PingPong> {
        Simulation::new(Topology::single_site(2, 1.0), 1, |_| PingPong::default())
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = two_node_sim();
        sim.schedule_call(SimTime::ZERO, NodeAddr(0), |_, ctx| {
            ctx.send(NodeAddr(1), Msg::Ping(7));
        });
        sim.run_until_idle();
        assert_eq!(sim.actor(NodeAddr(1)).pings, 1);
        assert_eq!(sim.actor(NodeAddr(0)).pongs, 1);
        // One round trip over a 1ms-RTT link takes about 1ms of virtual
        // time. The jitter model's minimum one-way latency is
        // mean - jitter_scale = 0.5ms * (1 - 0.05), so the tightest valid
        // lower bound for a round trip is 0.95ms.
        assert!(sim.now().as_millis_f64() >= 0.9);
        assert!(sim.now().as_millis_f64() < 3.0);
        assert_eq!(sim.stats().events(), 3); // call + ping + pong
    }

    #[test]
    fn timers_fire_at_the_right_time() {
        let mut sim = two_node_sim();
        sim.schedule_call(SimTime::ZERO, NodeAddr(0), |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(25), TimerToken(99));
        });
        sim.run_until(SimTime::from_millis(24));
        assert_eq!(sim.actor(NodeAddr(0)).last_timer, None);
        sim.run_until(SimTime::from_millis(26));
        assert_eq!(sim.actor(NodeAddr(0)).last_timer, Some(TimerToken(99)));
    }

    #[test]
    fn failed_nodes_drop_messages() {
        let mut sim = two_node_sim();
        sim.fail_node(NodeAddr(1));
        sim.schedule_call(SimTime::ZERO, NodeAddr(0), |_, ctx| {
            ctx.send(NodeAddr(1), Msg::Ping(1));
        });
        sim.run_until_idle();
        assert_eq!(sim.actor(NodeAddr(1)).pings, 0);
        assert_eq!(sim.stats().dropped(), 1);
        sim.revive_node(NodeAddr(1));
        let now = sim.now();
        sim.schedule_call(now, NodeAddr(0), |_, ctx| {
            ctx.send(NodeAddr(1), Msg::Ping(2));
        });
        sim.run_until_idle();
        assert_eq!(sim.actor(NodeAddr(1)).pings, 1);
    }

    #[test]
    fn deterministic_across_runs() {
        // Full-fidelity determinism: two same-seed runs over the 8-site EC2
        // topology must agree on the clock, every stats counter, and the
        // complete event trace (delivery and timer order included).
        let run = |seed: u64| {
            let mut sim =
                Simulation::new(Topology::aws_ec2_8_sites(4), seed, |_| PingPong::default());
            sim.enable_trace(1 << 16);
            for i in 0..16u32 {
                sim.schedule_call(SimTime::ZERO, NodeAddr(i), move |_, ctx| {
                    ctx.send(NodeAddr((i + 7) % 32), Msg::Ping(i));
                });
            }
            sim.run_until_idle();
            (sim.now(), sim.stats().clone(), sim.trace().to_vec())
        };
        let (now_a, stats_a, trace_a) = run(5);
        let (now_b, stats_b, trace_b) = run(5);
        assert_eq!(now_a, now_b);
        assert_eq!(stats_a, stats_b);
        assert!(!trace_a.is_empty());
        assert_eq!(trace_a, trace_b);
        assert_ne!(now_a, run(6).0);
    }

    /// Pop order is exactly `(at, seq)`, calls and events alike, and also
    /// for what lands behind the queue's cursor: `run_until` short of a far
    /// event peeks at it and leaves the cursor on its day, ahead of `now`.
    /// Every event here is labelled with the `seq` it is scheduled under.
    #[test]
    fn calls_and_events_pop_in_at_seq_order_behind_the_cursor() {
        #[derive(Debug)]
        struct Mark(u64);
        #[derive(Default)]
        struct Log(Vec<(SimTime, u64)>);
        impl Actor for Log {
            type Msg = Mark;
            fn on_message(&mut self, ctx: &mut Context<'_, Mark>, _: NodeAddr, m: Mark) {
                self.0.push((ctx.now(), m.0));
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, Mark>, token: TimerToken) {
                self.0.push((ctx.now(), token.0));
            }
        }
        let me = NodeAddr(0);
        let mark = |seq| move |a: &mut Log, ctx: &mut Context<'_, Mark>| a.0.push((ctx.now(), seq));
        // Zero RTT: a send lands at the instant it was made.
        let mut sim = Simulation::new(Topology::single_site(1, 0.0), 9, |_| Log::default());
        let far = SimTime::from_secs(30);
        sim.schedule_call(far, me, mark(0));
        sim.run_until(SimTime::from_secs(1));
        let now = sim.now();
        let tick = SimDuration::from_micros(1);
        sim.schedule_call(now, me, move |a, ctx| {
            mark(1)(a, ctx);
            ctx.send(me, Mark(4));
            ctx.send(me, Mark(5));
            ctx.set_timer(SimDuration::ZERO, TimerToken(6));
            ctx.set_timer(tick, TimerToken(7));
        });
        sim.schedule_call(now + tick, me, mark(2));
        sim.schedule_call(now, me, mark(3));
        sim.run_until(now);
        // The clock has not moved: a call at `now` still goes first, and one
        // a tick on queues behind the timer armed for that tick.
        sim.schedule_call(now + tick, me, mark(8));
        sim.schedule_call(now, me, mark(9));
        sim.run_until_idle();
        let at = |t: SimTime, seqs: &[u64]| seqs.iter().map(|&s| (t, s)).collect::<Vec<_>>();
        let expected = [
            at(now, &[1, 3, 4, 5, 6, 9]),
            at(now + tick, &[2, 7, 8]),
            at(far, &[0]),
        ]
        .concat();
        assert!(expected.is_sorted());
        assert_eq!(sim.actor(me).0, expected);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = two_node_sim();
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn cross_site_traffic_is_accounted() {
        let mut sim = Simulation::new(Topology::aws_ec2_8_sites(1), 2, |_| PingPong::default());
        sim.schedule_call(SimTime::ZERO, NodeAddr(0), |_, ctx| {
            ctx.send(NodeAddr(4), Msg::Ping(0)); // Virginia -> Singapore
        });
        sim.run_until_idle();
        assert_eq!(sim.stats().cross_site_sent(), 2); // ping + pong
    }

    #[test]
    fn sends_are_charged_the_actors_wire_size() {
        /// Each message claims to be as many bytes as its value.
        struct Sized;
        impl Actor for Sized {
            type Msg = u32;
            fn wire_size(msg: &u32) -> usize {
                *msg as usize
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeAddr, _: u32) {}
        }
        // Two nodes per site: 0 and 1 in Virginia, 2 in Oregon.
        let mut sim = Simulation::new(Topology::aws_ec2_8_sites(2), 1, |_| Sized);
        sim.schedule_call(SimTime::ZERO, NodeAddr(0), |_, ctx| {
            ctx.send(NodeAddr(1), 5);
            ctx.send(NodeAddr(2), 1000);
        });
        sim.run_until_idle();
        assert_eq!(sim.stats().bytes(), 1005);
        assert_eq!(sim.stats().cross_site_bytes(), 1000);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::topology::Topology;

    #[derive(Debug)]
    struct Echo;
    struct Node;
    impl Actor for Node {
        type Msg = Echo;
        fn on_message(&mut self, ctx: &mut Context<'_, Echo>, from: NodeAddr, _m: Echo) {
            if ctx.self_addr() == NodeAddr(1) {
                ctx.send(from, Echo);
            }
        }
    }

    #[test]
    fn trace_records_deliveries_in_time_order() {
        let mut sim = Simulation::new(Topology::single_site(2, 1.0), 3, |_| Node);
        sim.enable_trace(16);
        sim.schedule_call(SimTime::ZERO, NodeAddr(0), |_, ctx| {
            ctx.send(NodeAddr(1), Echo);
            ctx.set_timer(SimDuration::from_millis(50), TimerToken(9));
        });
        sim.run_until_idle();
        let trace = sim.trace();
        assert_eq!(trace.len(), 3, "{trace:?}");
        assert!(matches!(
            trace[0],
            TraceEvent::Deliver {
                to: NodeAddr(1),
                ..
            }
        ));
        assert!(matches!(
            trace[1],
            TraceEvent::Deliver {
                to: NodeAddr(0),
                ..
            }
        ));
        assert!(matches!(
            trace[2],
            TraceEvent::Timer {
                token: TimerToken(9),
                ..
            }
        ));
        // Monotone timestamps.
        let times: Vec<SimTime> = trace
            .iter()
            .map(|e| match e {
                TraceEvent::Deliver { at, .. } | TraceEvent::Timer { at, .. } => *at,
            })
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn trace_capacity_is_respected() {
        let mut sim = Simulation::new(Topology::single_site(2, 1.0), 4, |_| Node);
        sim.enable_trace(1);
        sim.schedule_call(SimTime::ZERO, NodeAddr(0), |_, ctx| {
            ctx.send(NodeAddr(1), Echo);
        });
        sim.run_until_idle();
        assert_eq!(sim.trace().len(), 1);
    }

    #[test]
    fn trace_off_by_default() {
        let sim = Simulation::new(Topology::single_site(2, 1.0), 5, |_| Node);
        assert!(sim.trace().is_empty());
    }
}
