//! The discrete-event simulation engine.
//!
//! Protocol code is written against [`Actor`] (message/timer callbacks) and
//! [`Context`] (send, timers, clock, randomness). The [`Simulation`] owns one
//! actor per [`NodeAddr`] and executes events in deterministic virtual-time
//! order: runs with the same seed produce identical traces.
//!
//! ## Hot path
//!
//! The engine keeps two queues. Message deliveries and timer fires — the
//! overwhelming majority of events — live in a [`CalendarQueue`] keyed on
//! `(at, seq)` and carry plain-data payloads, so scheduling and dispatching
//! them allocates nothing (the per-callback pending buffer is pooled and
//! reused). External [`Simulation::schedule_call`] closures, which are rare
//! and inherently boxed, live in a small side heap; the pop path merges the
//! two by key, preserving the exact global `(at, seq)` order a single heap
//! would produce.

use crate::obs::Recorder;
use crate::queue::CalendarQueue;
use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeAddr, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
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

/// Wire-size accounting for simulated messages.
///
/// The default implementation charges the in-memory size, which is a fair
/// stand-in for the compact binary encodings real deployments use; override
/// it for messages with significant heap payloads.
pub trait MessageSize {
    /// Approximate encoded size of this message in bytes.
    fn wire_size(&self) -> usize
    where
        Self: Sized,
    {
        std::mem::size_of_val(self)
    }
}

/// A simulated protocol participant.
///
/// One actor instance lives at each [`NodeAddr`]. All callbacks receive a
/// [`Context`] for sending messages, arming timers, and sampling randomness.
pub trait Actor: Sized {
    /// The message type exchanged between actors of this simulation.
    type Msg: MessageSize;

    /// Called once when the simulation starts (in address order).
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called when a message from `from` is delivered to this actor.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeAddr, msg: Self::Msg);

    /// Called when a timer armed with [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, token: TimerToken) {
        let _ = (ctx, token);
    }
}

/// A deferred external call against one actor.
type CallFn<A> = Box<dyn FnOnce(&mut A, &mut Context<'_, <A as Actor>::Msg>)>;

/// Plain-data event payloads stored in the calendar queue. Unlike the old
/// single-heap design there is no `Call` variant here, so the per-message
/// path never touches a boxed closure.
enum EventPayload<M> {
    Deliver {
        from: NodeAddr,
        to: NodeAddr,
        msg: M,
    },
    Timer {
        node: NodeAddr,
        token: TimerToken,
        generation: u64,
    },
}

/// A boxed [`Simulation::schedule_call`] closure in the side heap.
struct ScheduledCall<A: Actor> {
    at: SimTime,
    seq: u64,
    node: NodeAddr,
    f: CallFn<A>,
}

impl<A: Actor> PartialEq for ScheduledCall<A> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<A: Actor> Eq for ScheduledCall<A> {}
impl<A: Actor> PartialOrd for ScheduledCall<A> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<A: Actor> Ord for ScheduledCall<A> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest call pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

enum PendingEvent<M> {
    Deliver { to: NodeAddr, msg: M },
    Timer { token: TimerToken, generation: u64 },
}

/// One pending event in the exploration store (calendar queue and call
/// heap merged into a flat, removable-by-`seq` vector).
struct StoredEvent<A: Actor> {
    at: SimTime,
    seq: u64,
    entry: StoredEntry<A>,
}

enum StoredEntry<A: Actor> {
    Payload(EventPayload<A::Msg>),
    Call { node: NodeAddr, f: CallFn<A> },
}

impl<A: Actor> StoredEvent<A> {
    fn desc(&self) -> EventDesc {
        let kind = match &self.entry {
            StoredEntry::Payload(EventPayload::Deliver { from, to, .. }) => EventKind::Deliver {
                from: *from,
                to: *to,
            },
            StoredEntry::Payload(EventPayload::Timer { node, token, .. }) => EventKind::Timer {
                node: *node,
                token: *token,
            },
            StoredEntry::Call { node, .. } => EventKind::Call { node: *node },
        };
        EventDesc {
            at: self.at,
            seq: self.seq,
            kind,
        }
    }
}

/// Lazy timer cancellation: each `(node, token)` pair has a generation
/// counter, bumped by a cancel. A queued timer remembers the generation it
/// was armed under and is silently discarded at fire time if a cancel
/// happened in between. Workloads that never cancel skip the map entirely.
#[derive(Default)]
struct TimerGens {
    gens: HashMap<(NodeAddr, TimerToken), u64>,
    any_cancels: bool,
}

impl TimerGens {
    fn current(&self, node: NodeAddr, token: TimerToken) -> u64 {
        if !self.any_cancels {
            return 0;
        }
        self.gens.get(&(node, token)).copied().unwrap_or(0)
    }

    fn cancel(&mut self, node: NodeAddr, token: TimerToken) {
        self.any_cancels = true;
        *self.gens.entry((node, token)).or_insert(0) += 1;
    }
}

/// Everything an actor callback may touch besides its own state.
///
/// Sends and timer arms are buffered and applied to the global event queue
/// when the callback returns, preserving deterministic ordering.
pub struct Context<'a, M> {
    now: SimTime,
    self_addr: NodeAddr,
    topology: &'a Topology,
    rng: &'a mut SmallRng,
    stats: &'a mut NetStats,
    timers: &'a mut TimerGens,
    pending: Vec<(SimTime, PendingEvent<M>)>,
}

impl<'a, M: MessageSize> Context<'a, M> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This actor's own address.
    pub fn self_addr(&self) -> NodeAddr {
        self.self_addr
    }

    /// The shared topology (read-only).
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// The deterministic simulation RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Sends `msg` to `to`; it is delivered after a latency sampled from the
    /// topology. Messages to failed nodes are dropped at delivery time, like
    /// packets to a crashed host.
    pub fn send(&mut self, to: NodeAddr, msg: M) {
        let cross = self.topology.site_of(self.self_addr) != self.topology.site_of(to);
        self.stats.record_send(msg.wire_size(), cross);
        // Fault injection: messages may be lost in flight.
        let loss = self.topology.loss_prob();
        if loss > 0.0 && rand::Rng::gen_bool(self.rng, loss) {
            self.stats.record_drop();
            return;
        }
        let lat = self.topology.sample_latency(self.self_addr, to, self.rng);
        self.pending
            .push((self.now + lat, PendingEvent::Deliver { to, msg }));
    }

    /// Arms a timer on this actor that fires after `delay` with `token`.
    ///
    /// Arming the same token twice yields two independent fires; use
    /// [`Context::cancel_timer`] to invalidate earlier arms.
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        let generation = self.timers.current(self.self_addr, token);
        self.pending
            .push((self.now + delay, PendingEvent::Timer { token, generation }));
    }

    /// Cancels every outstanding timer this actor armed with `token`.
    ///
    /// Cancellation is lazy: the queued events stay in the queue and are
    /// discarded (and counted in [`NetStats::cancelled_timers`]) when they
    /// reach the head. Timers armed *after* the cancel fire normally —
    /// including ones armed later in the same callback.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        // Bumping the generation also invalidates arms buffered earlier in
        // this same callback: they carry the pre-bump generation.
        self.timers.cancel(self.self_addr, token);
    }
}

/// What [`Simulation::pop_next`] found at the head of the merged queues.
enum Next<A: Actor> {
    Event(EventPayload<A::Msg>),
    Call { node: NodeAddr, f: CallFn<A> },
}

/// A deterministic discrete-event simulation over a fixed set of actors.
///
/// ```
/// use simnet::{Actor, Context, MessageSize, NodeAddr, Simulation, Topology};
///
/// struct Echo(u32);
/// #[derive(Debug)]
/// struct Ping;
/// impl MessageSize for Ping {}
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
    /// Deliveries and timer fires: the allocation-free hot path.
    events: CalendarQueue<EventPayload<A::Msg>>,
    /// Rare boxed external calls, merged with `events` by `(at, seq)`.
    calls: BinaryHeap<ScheduledCall<A>>,
    now: SimTime,
    rng: SmallRng,
    stats: NetStats,
    timers: TimerGens,
    failed: Vec<bool>,
    seq: u64,
    started: bool,
    trace: Option<Vec<TraceEvent>>,
    trace_cap: usize,
    /// Observability-plane handle; disabled (a no-op) by default. The
    /// engine's only job is to keep its clock current at every dispatch so
    /// actor-layer hooks stamp events with the right virtual time.
    obs: Recorder,
    /// Recycled `Context::pending` buffer: swapped into each callback's
    /// context and back, so steady-state dispatch does not allocate.
    pending_pool: Vec<(SimTime, PendingEvent<A::Msg>)>,
    /// Exploration store ([`Simulation::enable_exploration`]): when
    /// `Some`, newly scheduled events land here instead of the calendar
    /// queue so a [`Scheduler`] can fire them in any order. `None` (the
    /// default) leaves the calendar-queue hot path untouched.
    explore: Option<Vec<StoredEvent<A>>>,
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
            events: CalendarQueue::new(),
            calls: BinaryHeap::new(),
            now: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(seed),
            stats: NetStats::default(),
            timers: TimerGens::default(),
            seq: 0,
            started: false,
            trace: None,
            trace_cap: 0,
            obs: Recorder::default(),
            pending_pool: Vec::new(),
            explore: None,
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
        if self.explore.is_some() {
            return;
        }
        let mut store = Vec::new();
        while let Some((at, seq, payload)) = self.events.pop() {
            store.push(StoredEvent {
                at,
                seq,
                entry: StoredEntry::Payload(payload),
            });
        }
        while let Some(call) = self.calls.pop() {
            store.push(StoredEvent {
                at: call.at,
                seq: call.seq,
                entry: StoredEntry::Call {
                    node: call.node,
                    f: call.f,
                },
            });
        }
        self.explore = Some(store);
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

    /// Installs an observability recorder (usually a clone of a recorder
    /// shared with the per-node protocol layers). The engine advances the
    /// recorder's clock at every dispatch and bumps per-node delivery
    /// counters when the recorder is enabled.
    pub fn set_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// The installed observability recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.obs
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

    /// Engine throughput: executed events per wall-clock second, measured
    /// over all `run_*` calls so far. Returns 0.0 before the first run.
    ///
    /// The event count itself is deterministic ([`NetStats::events`]); only
    /// this rate depends on the host machine.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.stats.events() as f64 * 1e9 / self.wall_nanos as f64
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

    /// Cancels every outstanding timer `node` armed with `token` (the
    /// external counterpart of [`Context::cancel_timer`]).
    pub fn cancel_timer(&mut self, node: NodeAddr, token: TimerToken) {
        self.timers.cancel(node, token);
    }

    /// Schedules `f` to run on the actor at `node` at absolute time `at`
    /// (clamped to now if already past).
    pub fn schedule_call(
        &mut self,
        at: SimTime,
        node: NodeAddr,
        f: impl FnOnce(&mut A, &mut Context<'_, A::Msg>) + 'static,
    ) {
        let at = at.max(self.now);
        let seq = self.next_seq();
        if let Some(store) = &mut self.explore {
            store.push(StoredEvent {
                at,
                seq,
                entry: StoredEntry::Call {
                    node,
                    f: Box::new(f),
                },
            });
        } else {
            self.calls.push(ScheduledCall {
                at,
                seq,
                node,
                f: Box::new(f),
            });
        }
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            self.dispatch_call_now(NodeAddr(i as u32), |a, ctx| a.on_start(ctx));
        }
    }

    /// Runs `f` against actor `node` with a live context, immediately, then
    /// flushes buffered sends/timers into the event queue.
    fn dispatch_call_now(
        &mut self,
        node: NodeAddr,
        f: impl FnOnce(&mut A, &mut Context<'_, A::Msg>),
    ) {
        if self.failed[node.index()] {
            return;
        }
        let mut ctx = Context {
            now: self.now,
            self_addr: node,
            topology: &self.topology,
            rng: &mut self.rng,
            stats: &mut self.stats,
            timers: &mut self.timers,
            // Reuse the pooled buffer; callbacks cannot re-enter dispatch,
            // so one buffer covers every callback in the simulation.
            pending: std::mem::take(&mut self.pending_pool),
        };
        f(&mut self.actors[node.index()], &mut ctx);
        let mut pending = ctx.pending;
        for (at, ev) in pending.drain(..) {
            let seq = self.next_seq();
            let payload = match ev {
                PendingEvent::Deliver { to, msg } => EventPayload::Deliver {
                    from: node,
                    to,
                    msg,
                },
                PendingEvent::Timer { token, generation } => EventPayload::Timer {
                    node,
                    token,
                    generation,
                },
            };
            if let Some(store) = &mut self.explore {
                store.push(StoredEvent {
                    at,
                    seq,
                    entry: StoredEntry::Payload(payload),
                });
            } else {
                self.events.push(at, seq, payload);
            }
        }
        self.pending_pool = pending;
    }

    /// Discards exploration-store events that would be no-ops anyway
    /// (cancelled timers; anything touching a crashed node), so the ready
    /// set presented to schedulers contains only events whose order can
    /// matter. Note this is eager relative to the normal path (which
    /// discards at pop time): a node revived *before* a pending delivery's
    /// timestamp would receive it on the normal path but not here, so
    /// exploration treats crashes as permanent.
    fn explore_prune(&mut self) {
        let Simulation {
            explore,
            failed,
            timers,
            stats,
            ..
        } = self;
        let Some(store) = explore else { return };
        store.retain(|e| match &e.entry {
            StoredEntry::Payload(EventPayload::Deliver { from, to, .. }) => {
                if failed[from.index()] || failed[to.index()] {
                    stats.record_drop();
                    false
                } else {
                    true
                }
            }
            StoredEntry::Payload(EventPayload::Timer {
                node,
                token,
                generation,
            }) => {
                if failed[node.index()] {
                    false
                } else if timers.current(*node, *token) != *generation {
                    stats.record_cancelled_timer();
                    false
                } else {
                    true
                }
            }
            StoredEntry::Call { node, .. } => !failed[node.index()],
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
        self.start_if_needed();
        self.explore_prune();
        let Some(store) = &self.explore else {
            return Vec::new();
        };
        let Some(min_at) = store.iter().map(|e| e.at).min() else {
            return Vec::new();
        };
        let horizon = min_at + window;
        let mut ready: Vec<EventDesc> = store
            .iter()
            .filter(|e| e.at <= horizon)
            .map(|e| e.desc())
            .collect();
        ready.sort_by_key(|d| (d.at, d.seq));
        ready
    }

    /// Executes the stored event with sequence number `seq`, advancing the
    /// clock to `max(now, at)`. Returns false if no such event is pending
    /// (replayed schedules tolerate vanished events that way).
    pub fn explore_fire(&mut self, seq: u64) -> bool {
        self.start_if_needed();
        let Some(store) = &mut self.explore else {
            return false;
        };
        let Some(i) = store.iter().position(|e| e.seq == seq) else {
            return false;
        };
        let ev = store.swap_remove(i);
        self.now = self.now.max(ev.at);
        match ev.entry {
            StoredEntry::Payload(p) => self.execute(Next::Event(p)),
            StoredEntry::Call { node, f } => self.execute(Next::Call { node, f }),
        }
        true
    }

    /// Drops the stored *delivery* with sequence number `seq` (fault
    /// injection: the message is lost in flight). Refuses (returns false)
    /// for timers and calls, which a network cannot lose.
    pub fn explore_drop(&mut self, seq: u64) -> bool {
        let Some(store) = &mut self.explore else {
            return false;
        };
        let Some(i) = store.iter().position(|e| e.seq == seq) else {
            return false;
        };
        if !matches!(
            store[i].entry,
            StoredEntry::Payload(EventPayload::Deliver { .. })
        ) {
            return false;
        }
        store.swap_remove(i);
        self.stats.record_drop();
        true
    }

    /// Applies one scheduler [`Choice`].
    pub fn explore_apply(&mut self, choice: Choice) -> bool {
        match choice {
            Choice::Fire(seq) => self.explore_fire(seq),
            Choice::Drop(seq) => self.explore_drop(seq),
            Choice::Crash(node) => {
                self.fail_node(node);
                true
            }
        }
    }

    /// Number of pending events in the exploration store (after pruning
    /// no-ops). Zero means the simulation has quiesced.
    pub fn explore_pending(&mut self) -> usize {
        self.explore_prune();
        self.explore.as_ref().map_or(0, |s| s.len())
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

    /// Fires stored events in default `(at, seq)` order — the exploration-
    /// mode equivalent of the normal run loop, used so `run_until*` keep
    /// working after [`Simulation::enable_exploration`].
    fn run_explored_default(&mut self, deadline: Option<SimTime>, limit: u64) -> u64 {
        self.start_if_needed();
        let mut n = 0;
        while n < limit {
            self.explore_prune();
            let Some(store) = &self.explore else { break };
            let Some((at, seq)) = store.iter().map(|e| (e.at, e.seq)).min() else {
                break;
            };
            if deadline.is_some_and(|d| at > d) {
                break;
            }
            self.explore_fire(seq);
            n += 1;
        }
        n
    }

    /// The `(at)` of the earliest queued event across both queues.
    fn peek_next_at(&mut self) -> Option<SimTime> {
        let ekey = self.events.peek_key();
        let ckey = self.calls.peek().map(|c| (c.at, c.seq));
        match (ekey, ckey) {
            (None, None) => None,
            (Some((at, _)), None) | (None, Some((at, _))) => Some(at),
            (Some(e), Some(c)) => Some(e.min(c).0),
        }
    }

    /// Pops the globally earliest event, merging the calendar queue and the
    /// call heap by `(at, seq)`.
    fn pop_next(&mut self) -> Option<(SimTime, Next<A>)> {
        let ekey = self.events.peek_key();
        let ckey = self.calls.peek().map(|c| (c.at, c.seq));
        let take_event = match (ekey, ckey) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(e), Some(c)) => e < c,
        };
        if take_event {
            let (at, _seq, payload) = self.events.pop().expect("peeked event exists");
            Some((at, Next::Event(payload)))
        } else {
            let call = self.calls.pop().expect("peeked call exists");
            Some((
                call.at,
                Next::Call {
                    node: call.node,
                    f: call.f,
                },
            ))
        }
    }

    /// Executes events until the queue is empty or `limit` events have run.
    /// Returns the number of events executed.
    pub fn run_until_idle_with_limit(&mut self, limit: u64) -> u64 {
        if self.explore.is_some() {
            return self.run_explored_default(None, limit);
        }
        self.start_if_needed();
        let wall = Instant::now();
        let mut n = 0;
        while n < limit {
            let Some((at, next)) = self.pop_next() else {
                break;
            };
            self.now = at;
            self.execute(next);
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
        let n = self.run_until_idle_with_limit(limit);
        assert!(
            n < limit,
            "simulation did not quiesce within {limit} events"
        );
        n
    }

    /// Executes events with timestamps `<= deadline`; the clock ends at
    /// `deadline` even if the queue drained earlier.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        if self.explore.is_some() {
            let n = self.run_explored_default(Some(deadline), u64::MAX);
            self.now = self.now.max(deadline);
            return n;
        }
        self.start_if_needed();
        let wall = Instant::now();
        let mut n = 0;
        while let Some(at) = self.peek_next_at() {
            if at > deadline {
                break;
            }
            let (at, next) = self.pop_next().expect("peeked event exists");
            self.now = at;
            self.execute(next);
            n += 1;
        }
        self.now = self.now.max(deadline);
        self.wall_nanos += wall.elapsed().as_nanos() as u64;
        n
    }

    /// Runs for `d` more virtual time.
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let deadline = self.now + d;
        self.run_until(deadline)
    }

    fn execute(&mut self, next: Next<A>) {
        self.stats.record_event();
        self.obs.set_now(self.now);
        match next {
            Next::Event(EventPayload::Deliver { from, to, msg }) => {
                if self.failed[to.index()] || self.failed[from.index()] {
                    self.stats.record_drop();
                    return;
                }
                self.stats.record_delivery();
                self.record_trace(TraceEvent::Deliver {
                    at: self.now,
                    from,
                    to,
                });
                self.obs.count(to, "deliver");
                self.dispatch_call_now(to, move |a, ctx| a.on_message(ctx, from, msg));
            }
            Next::Event(EventPayload::Timer {
                node,
                token,
                generation,
            }) => {
                if self.timers.current(node, token) != generation {
                    self.stats.record_cancelled_timer();
                    return;
                }
                self.record_trace(TraceEvent::Timer {
                    at: self.now,
                    node,
                    token,
                });
                self.dispatch_call_now(node, move |a, ctx| a.on_timer(ctx, token));
            }
            Next::Call { node, f } => {
                self.dispatch_call_now(node, f);
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
    impl MessageSize for Msg {}

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

    #[test]
    fn same_timestamp_events_pop_in_schedule_order() {
        // With a zero-RTT topology every send lands at the same instant; the
        // seq tie-break must preserve the order the events were scheduled.
        struct Quiet;
        #[derive(Debug)]
        struct Nudge;
        impl MessageSize for Nudge {}
        impl Actor for Quiet {
            type Msg = Nudge;
            fn on_message(&mut self, _: &mut Context<'_, Nudge>, _: NodeAddr, _: Nudge) {}
        }
        let mut sim = Simulation::new(Topology::single_site(4, 0.0), 9, |_| Quiet);
        sim.enable_trace(16);
        sim.schedule_call(SimTime::ZERO, NodeAddr(0), |_, ctx| {
            ctx.send(NodeAddr(1), Nudge);
            ctx.send(NodeAddr(2), Nudge);
            ctx.send(NodeAddr(3), Nudge);
            ctx.set_timer(SimDuration::ZERO, TimerToken(5));
        });
        sim.run_until_idle();
        let trace = sim.trace();
        assert_eq!(trace.len(), 4, "{trace:?}");
        assert!(matches!(
            trace[0],
            TraceEvent::Deliver {
                to: NodeAddr(1),
                at: SimTime::ZERO,
                ..
            }
        ));
        assert!(matches!(
            trace[1],
            TraceEvent::Deliver {
                to: NodeAddr(2),
                ..
            }
        ));
        assert!(matches!(
            trace[2],
            TraceEvent::Deliver {
                to: NodeAddr(3),
                ..
            }
        ));
        assert!(matches!(
            trace[3],
            TraceEvent::Timer {
                token: TimerToken(5),
                ..
            }
        ));
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        let mut sim = two_node_sim();
        sim.schedule_call(SimTime::ZERO, NodeAddr(0), |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(10), TimerToken(1));
            ctx.set_timer(SimDuration::from_millis(20), TimerToken(2));
        });
        sim.schedule_call(SimTime::from_millis(5), NodeAddr(0), |_, ctx| {
            ctx.cancel_timer(TimerToken(1));
        });
        sim.run_until_idle();
        // Token 1 was cancelled before its fire time; token 2 fires.
        assert_eq!(sim.actor(NodeAddr(0)).last_timer, Some(TimerToken(2)));
        assert_eq!(sim.stats().cancelled_timers(), 1);
    }

    #[test]
    fn rearm_after_cancel_fires() {
        // set, cancel, re-set in a single callback: only the re-arm fires.
        let mut sim = two_node_sim();
        sim.schedule_call(SimTime::ZERO, NodeAddr(0), |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(10), TimerToken(7));
            ctx.cancel_timer(TimerToken(7));
            ctx.set_timer(SimDuration::from_millis(30), TimerToken(7));
        });
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.actor(NodeAddr(0)).last_timer, None);
        assert_eq!(sim.stats().cancelled_timers(), 1);
        sim.run_until(SimTime::from_millis(40));
        assert_eq!(sim.actor(NodeAddr(0)).last_timer, Some(TimerToken(7)));
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
    fn on_start_runs_once_for_every_actor() {
        struct Starter {
            started: bool,
        }
        #[derive(Debug)]
        struct Nothing;
        impl MessageSize for Nothing {}
        impl Actor for Starter {
            type Msg = Nothing;
            fn on_start(&mut self, _ctx: &mut Context<'_, Nothing>) {
                assert!(!self.started, "on_start ran twice");
                self.started = true;
            }
            fn on_message(&mut self, _: &mut Context<'_, Nothing>, _: NodeAddr, _: Nothing) {}
        }
        let mut sim = Simulation::new(Topology::single_site(5, 0.1), 0, |_| Starter {
            started: false,
        });
        sim.run_until_idle();
        sim.run_until_idle();
        assert!(sim.actors().all(|(_, a)| a.started));
    }

    #[test]
    fn events_per_sec_is_positive_after_running() {
        let mut sim = two_node_sim();
        sim.schedule_call(SimTime::ZERO, NodeAddr(0), |_, ctx| {
            ctx.send(NodeAddr(1), Msg::Ping(0));
        });
        sim.run_until_idle();
        assert!(sim.stats().events() > 0);
        assert!(sim.events_per_sec() > 0.0);
        assert!(sim.wall_time() > Duration::ZERO);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::topology::Topology;

    #[derive(Debug)]
    struct Echo;
    impl MessageSize for Echo {}
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
