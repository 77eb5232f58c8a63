//! # pastry — a from-scratch Pastry DHT
//!
//! The structured-overlay substrate of the RBAY reproduction (paper §II.B):
//! 128-bit NodeIds derived from SHA-1, base-16 prefix routing in
//! `⌈log₁₆ N⌉` expected hops, leaf sets for the final routing step and for
//! failure repair, and a site-scoped routing mode used by RBAY's
//! administrative isolation.
//!
//! The protocol core ([`PastryNode`]) is sans-I/O: it emits messages through
//! a [`Net`] — any [`simnet::Transport`] of [`PastryMsg`]s — and surfaces
//! application payloads through [`PastryApp`], so the same code runs over
//! the deterministic [`simnet`] simulator (whose [`simnet::Context`] is such
//! a transport) or over real sockets.
//!
//! ```
//! use pastry::{NodeId, NodeInfo, PastryNode};
//! use simnet::{NodeAddr, SiteId};
//!
//! let mut nodes: Vec<PastryNode> = (0..32)
//!     .map(|i| PastryNode::new(NodeInfo {
//!         id: NodeId::hash_of(format!("node:{i}").as_bytes()),
//!         addr: NodeAddr(i),
//!         site: SiteId(0),
//!     }))
//!     .collect();
//! // Seed converged routing state (the protocol join is also available).
//! pastry::seed_overlay(&mut nodes, |_, _| 0.0);
//! assert!(nodes.iter().all(|n| n.is_joined()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bootstrap;
mod id;
mod node;
pub mod sha1;
mod state;

pub use bootstrap::seed_overlay;
pub use id::{NodeId, BITS_PER_DIGIT, DIGIT_BASE, ID_DIGITS};
pub use node::{Net, PastryApp, PastryMsg, PastryNode, PastryStats};
pub use state::{LeafSet, NodeInfo, RoutingTable, LEAF_SET_SIDE};
