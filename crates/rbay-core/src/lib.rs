//! # rbay-core — the RBAY information plane
//!
//! The paper's primary contribution (§II–III): a decentralized information
//! plane that federates spare datacenter resources through DHT-based
//! aggregation trees, with admin-customized *active attributes* governing
//! which resource is exposed to whom, when, and how.
//!
//! A node is [`RbayNode`] = Pastry routing + Scribe trees + the
//! [`RbayHost`] application (key-value map, AA runtime, query engine).
//! [`Federation`] brings a whole deployment up over the `simnet`
//! simulator and exposes the eBay-style API: admins *post* resources with
//! policies, customers *query* with composite SQL-like predicates.
//!
//! ```
//! use rbay_core::Federation;
//! use rbay_query::AttrValue;
//! use simnet::{NodeAddr, Topology};
//!
//! let mut fed = Federation::new(Topology::single_site(32, 0.5), 7);
//! fed.post_resource(NodeAddr(3), "Matlab", AttrValue::str("9.0"));
//! fed.settle();
//! let q = fed
//!     .issue_query(NodeAddr(20), r#"SELECT 1 FROM * WHERE Matlab = "9.0""#, None)
//!     .unwrap();
//! fed.settle();
//! assert!(fed.query_record(NodeAddr(20), q).unwrap().satisfied);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod engine;
mod federation;
pub mod frontdoor;
mod host;
mod liveness;
mod naming;
mod pack;
mod types;
mod wire;

pub use actor::{RbayMsg, RbayNode};
pub use federation::{Federation, FrontdoorOutcome};
pub use frontdoor::{query_key, Frontdoor, FrontdoorConfig, FrontdoorResponse, FrontdoorStats};
pub use host::{
    InstallError, LintPolicy, Op, RbayConfig, RbayHost, RestoreSummary, FRONTDOOR_TREE,
};
pub use liveness::SLOW_PROBE_PERIOD;
pub use naming::HybridNaming;
pub use pack::{FrameSink, MemberCtx, Pack};
pub use types::{
    AdminCommand, Candidate, QueryId, QueryPending, QueryRecord, RbayEvent, RbayPayload,
    SearchState,
};
