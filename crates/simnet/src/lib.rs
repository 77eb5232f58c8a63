//! # simnet — deterministic discrete-event network simulation
//!
//! This crate is the testbed substrate of the RBAY reproduction. The paper
//! evaluated RBAY on 160 Amazon EC2 VMs spread over eight regions; here the
//! same protocols run over a deterministic event-queue simulator whose
//! inter-site latencies come from the paper's own Table II measurements
//! ([`Topology::aws_ec2_8_sites`]).
//!
//! ## Model
//!
//! * Every participant is an [`Actor`] living at a [`NodeAddr`].
//! * Actors exchange typed messages through a [`Transport`]; the
//!   simulator's is the [`Context`] each callback receives, and delivery
//!   latency is sampled from the [`Topology`] (half the site-pair RTT plus
//!   exponential jitter).
//! * Virtual time ([`SimTime`]) only advances when events execute, so a
//!   16,000-node federation simulates in seconds of wall-clock time.
//! * Everything is seeded: the same seed reproduces the same trace, which is
//!   what makes the paper's figures regenerable as tests.
//!
//! ## Example
//!
//! ```
//! use simnet::{Actor, Context, MessageSize, NodeAddr, SimTime, Simulation, Topology, Transport};
//!
//! #[derive(Debug)]
//! struct Hello;
//! impl MessageSize for Hello {}
//!
//! struct Greeter { greeted: u32 }
//! impl Actor for Greeter {
//!     type Msg = Hello;
//!     fn on_message(&mut self, _ctx: &mut Context<'_, Hello>, _from: NodeAddr, _msg: Hello) {
//!         self.greeted += 1;
//!     }
//! }
//!
//! let mut sim = Simulation::new(Topology::aws_ec2_8_sites(2), 7, |_| Greeter { greeted: 0 });
//! sim.schedule_call(SimTime::ZERO, NodeAddr(0), |_, ctx| {
//!     ctx.send(NodeAddr(15), Hello); // Virginia -> São Paulo
//! });
//! sim.run_until_idle();
//! assert_eq!(sim.actor(NodeAddr(15)).greeted, 1);
//! // One-way Virginia -> São Paulo is around half of the 123.966ms RTT.
//! assert!(sim.now().as_millis_f64() >= 123.966 / 2.0 * 0.2);
//! ```
//!
//! Protocol code takes any [`Transport`], so it runs over real sockets as
//! written; inside an [`Actor`] the `Context` is that transport:
//!
//! ```
//! use simnet::{Actor, Context, MessageSize, NodeAddr, SimTime, Simulation, Topology, Transport};
//!
//! #[derive(Debug)]
//! struct Ball(u32);
//! impl MessageSize for Ball {}
//!
//! /// Returns the ball until it has bounced three times.
//! fn bounce<T: Transport<Ball>>(tr: &mut T, from: NodeAddr, ball: Ball) {
//!     if ball.0 < 3 {
//!         tr.send(from, Ball(ball.0 + 1));
//!     }
//! }
//!
//! struct Player { last: u32 }
//! impl Actor for Player {
//!     type Msg = Ball;
//!     fn on_message(&mut self, ctx: &mut Context<'_, Ball>, from: NodeAddr, ball: Ball) {
//!         self.last = ball.0;
//!         bounce(ctx, from, ball);
//!     }
//! }
//!
//! let mut sim = Simulation::new(Topology::single_site(2, 1.0), 7, |_| Player { last: 0 });
//! sim.schedule_call(SimTime::ZERO, NodeAddr(0), |_, ctx| bounce(ctx, NodeAddr(1), Ball(0)));
//! sim.run_until_idle();
//! assert_eq!(sim.actor(NodeAddr(1)).last, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod obs;
pub mod queue;
pub mod sched;
mod stats;
mod time;
pub mod topology;
mod transport;

pub use engine::{
    Actor, Choice, Context, EarliestFirst, EventDesc, EventKind, MessageSize, Scheduler,
    Simulation, TimerToken, TraceEvent,
};
pub use obs::{MetricsSnapshot, ObsEvent, Recorder};
pub use queue::CalendarQueue;
pub use sched::{ExploreScheduler, FaultOpts, Footprint, RandomScheduler, ReplayScheduler};
pub use stats::NetStats;
pub use time::{SimDuration, SimTime};
pub use topology::{NodeAddr, SiteId, SiteSpec, Topology};
pub use transport::Transport;
