//! # rbay-check — systematic interleaving exploration for the RBAY planes
//!
//! A Loom/Shuttle-style stateless model checker for the Scribe/Pastry
//! protocol stack. Instead of running `simnet` in one seed-determined
//! event order and hoping bugs surface, `rbay-check` drives small
//! configurations through *all* bounded interleavings of co-enabled
//! events — with message drops and node crashes folded into the explored
//! choice space — and evaluates protocol invariants after every step:
//!
//! * single live root per topic tree;
//! * no double-counted aggregate (no persistent dual attachment);
//! * no permanently orphaned subscriber after quiescence;
//! * no permanently evicted live peer, and peer-set symmetry after
//!   gossip convergence;
//! * **no committed query lost** — every query issued from a live origin
//!   completes (the ROADMAP-1 reflex).
//!
//! The engine side lives in `simnet`: a [`simnet::Scheduler`] decides
//! which ready event fires next, `simnet::ExploreScheduler` runs
//! iterative-deepening DFS with sleep-set partial-order reduction
//! (events on disjoint nodes commute), and `simnet::ReplayScheduler`
//! re-executes a recorded decision trace. This crate adds the scenarios,
//! the invariant oracles, the `.schedule` counterexample format with
//! delta-debugging shrink, and the run drivers. The CLI binary is
//! `rbay-bench/src/bin/rbay_check.rs`.
//!
//! ```
//! use rbay_check::{runner, scenario::CheckSpec};
//! use std::time::Duration;
//!
//! let spec = CheckSpec::subscribe_fail_repair(3, 7);
//! let report = runner::explore(
//!     &spec,
//!     &runner::ExploreOpts {
//!         budget: Duration::from_secs(2),
//!         max_runs: 50,
//!         ..Default::default()
//!     },
//! );
//! assert!(report.violations.is_empty(), "{:?}", report.violations);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod invariants;
pub mod runner;
pub mod scenario;
pub mod schedule;

pub use invariants::{InvariantCtx, Violation};
pub use runner::{explore, explore_random, replay, shrink, Counterexample, ExploreOpts, Replayed};
pub use scenario::{
    run_churn_default, CheckSpec, ChurnParams, ChurnState, Epoch, Fig8Params, Probes, Scenario,
    ScenarioKind,
};
pub use schedule::ScheduleFile;
