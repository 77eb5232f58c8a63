//! The [`Transport`] abstraction: everything a protocol actor needs from
//! the outside world — message delivery, a clock, and timers — behind one
//! trait, so the same `pastry`/`scribe`/`rbay-core` state machines run
//! unchanged over the in-memory simulator or a real socket backend.

use crate::engine::TimerToken;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeAddr, SiteId};

/// A message plane for one node: sends typed messages to peer addresses,
/// reads a clock, and arms timers.
///
/// Implementations:
///
/// * [`crate::Context`], the handle every [`crate::Actor`] callback gets:
///   sends and timer arms become events of the [`crate::Simulation`].
/// * `rbay-core`'s `MemberCtx` (what the `rbay-node` daemon runs) loops
///   messages between members of one process back in memory, frames the
///   rest onto `rbay-wire`'s `TcpBus`, and queues timers against the wall
///   clock in a [`crate::CalendarQueue`] of its own.
///
/// Delivery is *best-effort* on every backend: the simulator can drop
/// messages under a loss probability, and the TCP backend drops frames on
/// broken or saturated connections. The overlay protocols already tolerate
/// loss (heartbeats, rejoin, repair), so the trait makes no delivery
/// promise.
pub trait Transport<M> {
    /// Sends `msg` to the node addressed `to`. Best-effort; never blocks
    /// indefinitely.
    fn send(&mut self, to: NodeAddr, msg: M);

    /// The current time on this backend's clock.
    fn now(&self) -> SimTime;

    /// Arms a timer that fires `token` after `delay`. Each arm fires
    /// exactly once, in `(deadline, arm order)`; there is no cancel and
    /// re-arming a token supersedes nothing, so a receiver must tolerate a
    /// stale firing. The only timers armed today are the query engine's,
    /// whose tokens are unique per `(query, attempt, kind)` and whose
    /// handler (`RbayHost::on_query_timer`) drops a firing for a finished
    /// query or an earlier attempt — which is why no backend needs more.
    fn set_timer(&mut self, delay: SimDuration, token: TimerToken);

    /// Estimated round-trip time between two sites in milliseconds, used
    /// by proximity-aware routing. Backends without a topology model
    /// return 0 (all peers equally near).
    fn rtt_ms(&self, _a: SiteId, _b: SiteId) -> f64 {
        0.0
    }
}
