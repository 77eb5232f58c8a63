//! Seeded-mutant switchboard for the mutation-smoke suite.
//!
//! PR 4 fixed four tree-repair bugs. Each fix site also consults this
//! module; with the `seeded-bugs` feature enabled, `rbay-check`'s
//! mutation tests can re-introduce one bug at a time and assert the
//! checker finds it within a bounded step budget. Without the feature
//! every query compiles to `false` and the sites are unchanged.
//!
//! Bug ids:
//! 1. reparent omits the `Leave` to the old parent (double-counted
//!    aggregate: the member stays in two children sets). Gates the one
//!    site that clears a parent pointer, `detach`, which serves both the
//!    stale-`JoinAck` reparent and the notice to a falsely-declared
//!    parent;
//! 2. `NotChild` NACK ignored (permanently orphaned subscriber: the
//!    child keeps a parent that disowned it);
//! 3. peers are never unsuspected on receipt of traffic (live peers get
//!    permanently evicted after one missed heartbeat) — site lives in
//!    `rbay-core`, which queries through this switchboard;
//! 4. fragment-root demotion disabled (two live roots per topic after a
//!    partition heals).

#[cfg(feature = "seeded-bugs")]
use std::sync::atomic::{AtomicU8, Ordering};

#[cfg(feature = "seeded-bugs")]
static ACTIVE_BUG: AtomicU8 = AtomicU8::new(0);

/// Whether seeded bug `id` (1–4) is currently active. Always `false`
/// without the `seeded-bugs` feature.
#[cfg(feature = "seeded-bugs")]
pub fn seeded_bug_active(id: u8) -> bool {
    ACTIVE_BUG.load(Ordering::Relaxed) == id
}

/// Whether seeded bug `id` (1–4) is currently active. Always `false`
/// without the `seeded-bugs` feature.
#[cfg(not(feature = "seeded-bugs"))]
pub fn seeded_bug_active(_id: u8) -> bool {
    false
}

/// Activates seeded bug `id` process-wide (0 disarms). The switch is a
/// process-global, so mutation tests must run the four bugs
/// sequentially, not in parallel `#[test]`s.
#[cfg(feature = "seeded-bugs")]
pub fn set_seeded_bug(id: u8) {
    ACTIVE_BUG.store(id, Ordering::Relaxed);
}
