//! # scribe — tree-based group communication with aggregation
//!
//! The group-communication substrate of the RBAY reproduction (paper
//! §II.B.2–3). Nodes sharing a resource attribute gather into a spanning
//! tree named by `TopicId = SHA-1(name ++ creator)`, rooted at the node
//! whose NodeId is numerically closest to the TopicId, and built from the
//! union of JOIN paths through the Pastry overlay.
//!
//! Three primitives operate over each tree:
//!
//! * **multicast** — dissemination from the root to every subscriber (RBAY
//!   uses it to push admin policy changes);
//! * **anycast** — a distributed depth-first search that stops at the first
//!   member accepting the visit (RBAY uses it to discover available
//!   resources near the querier);
//! * **aggregate** — RBAY's extension: periodic roll-up of composable
//!   functions (count, sum, min, max, mean) from the leaves to the root,
//!   giving the root a cheap global view such as the tree size.
//!
//! The layer is sans-I/O like the `pastry` crate: plug a [`ScribeLayer`]
//! and your [`ScribeHost`] into a [`ScribeApp`] and feed it Pastry
//! messages.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod layer;
mod seeded;
mod types;

pub use layer::{
    Child, ReplicaCache, ScribeApp, ScribeHost, ScribeLayer, TopicState, REPLICA_K,
    REPLICA_TTL_ROUNDS,
};
pub use seeded::seeded_bug_active;
#[cfg(feature = "seeded-bugs")]
pub use seeded::set_seeded_bug;
pub use types::{AggValue, ScribeMsg, TopicId, Visit};
