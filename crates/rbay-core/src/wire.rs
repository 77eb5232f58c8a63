//! Wire layouts of this crate's cross-node types ([`RbayPayload`] and
//! friends), declared with `rbay-wire`'s macros. They live here rather
//! than in `rbay-wire` because the orphan rule wants impls next to the
//! local side, and `rbay-wire` cannot depend on this crate.
//!
//! A declaration *is* the frozen layout: field order is byte order, and
//! each enum's tag table is its `Wire::TAGS`.

use crate::frontdoor::FrontdoorStats;
use crate::types::{AdminCommand, Candidate, QueryId, RbayPayload, SearchState};
use rbay_wire::{wire_enum, wire_struct};

wire_struct!(QueryId { 0 });
wire_struct!(FrontdoorStats {
    hits,
    misses,
    coalesced,
    shed,
    invalidations,
    evictions
});
wire_struct!(Candidate {
    id,
    addr,
    site,
    sort_key
});
wire_struct!(SearchState {
    query_id,
    reply_to,
    query,
    password,
    slots
});
wire_struct!(AdminCommand {
    cmd_id,
    attr,
    payload,
    issued_at
});

// Tags 2, 4 and 5 are retired: wire version 2 replaced the relayed probe
// answer and a remote site's separate probe and search requests with
// `SiteSearch`.
wire_enum!(RbayPayload {
    0 => SizeProbe { query_id, tree_idx },
    1 => Search(state),
    3 => SearchEcho { query_id, site, slots, satisfied },
    6 => Commit { query_id },
    7 => Release { query_id },
    8 => Admin(cmd),
    9 => StatsProbe { reply_to, tree },
    10 => StatsEcho { tree, agg, exists },
    11 => Ping { nonce, info },
    12 => Pong { nonce, info },
    13 => Invalidate { attr, fanout },
    14 => SiteSearch { state, trees },
});
