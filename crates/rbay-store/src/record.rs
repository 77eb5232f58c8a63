//! The WAL record vocabulary and the in-memory state image it rebuilds.

use rbay_query::AttrValue;
use rbay_wire::{wire_enum, wire_struct};
use scribe::TopicId;
use simnet::SiteId;
use std::collections::{BTreeMap, BTreeSet};

/// One durable mutation of `RbayHost` state. Every variant is appended to
/// the WAL *before* the corresponding in-memory mutation is acknowledged,
/// so a crash immediately after the ack can always be replayed.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An attribute upsert (`post_resource`, `update_attr`, or an admin
    /// multicast delivery after `onDeliver` transformation).
    AttrPut {
        /// Attribute name.
        attr: String,
        /// New value.
        value: AttrValue,
    },
    /// An attribute delete.
    AttrDel {
        /// Attribute name.
        attr: String,
    },
    /// Node-level policy AA installed; the source text is persisted so
    /// restore can re-lint it under the current policy.
    NodeAaInstall {
        /// Full AAScript source.
        source: String,
    },
    /// Node-level policy AA removed.
    NodeAaUninstall,
    /// Per-attribute AA installed.
    AttrAaInstall {
        /// Anchor attribute.
        attr: String,
        /// Full AAScript source.
        source: String,
    },
    /// Per-attribute AA removed.
    AttrAaUninstall {
        /// Anchor attribute.
        attr: String,
    },
    /// A tree subscription this node must hold across restarts.
    SubAdd {
        /// Scoped topic of the tree.
        topic: TopicId,
        /// Routing scope (the site under administrative isolation).
        scope: Option<SiteId>,
    },
    /// A tree subscription dropped (dynamic-tree `onUnsubscribe`).
    SubRemove {
        /// Scoped topic of the tree.
        topic: TopicId,
    },
    /// A reservation on this node was committed by the given query
    /// (raw `QueryId` bits; this crate does not see `rbay-core` types).
    Commit {
        /// `QueryId.0`.
        query: u64,
    },
    /// The committed reservation was explicitly released.
    Release {
        /// `QueryId.0`.
        query: u64,
    },
}

impl WalRecord {
    /// Short name for obs counters and trace lines.
    pub fn kind(&self) -> &'static str {
        match self {
            WalRecord::AttrPut { .. } => "attr_put",
            WalRecord::AttrDel { .. } => "attr_del",
            WalRecord::NodeAaInstall { .. } => "node_aa_install",
            WalRecord::NodeAaUninstall => "node_aa_uninstall",
            WalRecord::AttrAaInstall { .. } => "attr_aa_install",
            WalRecord::AttrAaUninstall { .. } => "attr_aa_uninstall",
            WalRecord::SubAdd { .. } => "sub_add",
            WalRecord::SubRemove { .. } => "sub_remove",
            WalRecord::Commit { .. } => "commit",
            WalRecord::Release { .. } => "release",
        }
    }
}

// The on-disk layout: tags and field order are frozen (golden bytes in
// `tests/recovery.rs`); a new record kind takes the next free tag.
wire_enum!(WalRecord {
    0 => AttrPut { attr, value },
    1 => AttrDel { attr },
    2 => NodeAaInstall { source },
    3 => NodeAaUninstall,
    4 => AttrAaInstall { attr, source },
    5 => AttrAaUninstall { attr },
    6 => SubAdd { topic, scope },
    7 => SubRemove { topic },
    8 => Commit { query },
    9 => Release { query },
});

/// The full durable image of one host: what a snapshot serializes and what
/// WAL replay rebuilds. The [`Store`](crate::Store) maintains this image
/// incrementally on every append, so snapshotting never re-reads the log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DurableState {
    /// The resource attribute map.
    pub attrs: BTreeMap<String, AttrValue>,
    /// Node-level AA source, if installed.
    pub node_aa: Option<String>,
    /// Per-attribute AA sources.
    pub attr_aas: BTreeMap<String, String>,
    /// Held tree subscriptions: topic → routing scope.
    pub subs: BTreeMap<TopicId, Option<SiteId>>,
    /// Queries whose reservations this node committed (raw `QueryId` bits).
    pub committed: BTreeSet<u64>,
    /// The query currently holding the committed reservation, if any.
    pub reserved: Option<u64>,
}

impl DurableState {
    /// Whether applying `rec` would leave the state unchanged. The store
    /// skips such appends — the host re-posts subscriptions every
    /// maintenance round and re-installs on restore, and none of that
    /// should bloat the log.
    pub fn is_noop(&self, rec: &WalRecord) -> bool {
        match rec {
            WalRecord::AttrPut { attr, value } => self.attrs.get(attr) == Some(value),
            WalRecord::AttrDel { attr } => !self.attrs.contains_key(attr),
            WalRecord::NodeAaInstall { source } => self.node_aa.as_ref() == Some(source),
            WalRecord::NodeAaUninstall => self.node_aa.is_none(),
            WalRecord::AttrAaInstall { attr, source } => self.attr_aas.get(attr) == Some(source),
            WalRecord::AttrAaUninstall { attr } => !self.attr_aas.contains_key(attr),
            WalRecord::SubAdd { topic, scope } => self.subs.get(topic) == Some(scope),
            WalRecord::SubRemove { topic } => !self.subs.contains_key(topic),
            WalRecord::Commit { query } => {
                self.committed.contains(query) && self.reserved == Some(*query)
            }
            WalRecord::Release { query } => self.reserved != Some(*query),
        }
    }

    /// Applies one record to the image.
    pub fn apply(&mut self, rec: &WalRecord) {
        match rec {
            WalRecord::AttrPut { attr, value } => {
                self.attrs.insert(attr.clone(), value.clone());
            }
            WalRecord::AttrDel { attr } => {
                self.attrs.remove(attr);
            }
            WalRecord::NodeAaInstall { source } => self.node_aa = Some(source.clone()),
            WalRecord::NodeAaUninstall => self.node_aa = None,
            WalRecord::AttrAaInstall { attr, source } => {
                self.attr_aas.insert(attr.clone(), source.clone());
            }
            WalRecord::AttrAaUninstall { attr } => {
                self.attr_aas.remove(attr);
            }
            WalRecord::SubAdd { topic, scope } => {
                self.subs.insert(*topic, *scope);
            }
            WalRecord::SubRemove { topic } => {
                self.subs.remove(topic);
            }
            WalRecord::Commit { query } => {
                self.committed.insert(*query);
                self.reserved = Some(*query);
            }
            WalRecord::Release { query } => {
                if self.reserved == Some(*query) {
                    self.reserved = None;
                }
            }
        }
    }
}

// The snapshot image: maps and sets are length-prefixed, in key order.
wire_struct!(DurableState {
    attrs,
    node_aa,
    attr_aas,
    subs,
    committed,
    reserved
});

/// Store health counters, surfaced in `ProcStatusReply` so the cluster
/// harness (and a rolling restart's gate) can read durability behaviour
/// off a live daemon.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// WAL records appended (dedup skips excluded).
    pub appends: u64,
    /// Appends skipped because the record would not change state.
    pub dedup_skips: u64,
    /// Snapshot compactions taken.
    pub snapshots: u64,
    /// Records replayed at the last open.
    pub replay_records: u64,
    /// Wall-clock microseconds the last open spent loading snapshot + WAL.
    pub replay_micros: u64,
    /// Handler sources rejected by re-lint on restore (set by the host).
    pub relint_rejects: u64,
    /// Bytes in the live WAL generation.
    pub wal_bytes: u64,
    /// Records in the live WAL generation.
    pub wal_records: u64,
}

impl StoreStats {
    /// Accumulates another store's counters into this one (process- or
    /// fleet-wide aggregation over packed members).
    pub fn merge(&mut self, other: &StoreStats) {
        self.appends += other.appends;
        self.dedup_skips += other.dedup_skips;
        self.snapshots += other.snapshots;
        self.replay_records += other.replay_records;
        self.replay_micros += other.replay_micros;
        self.relint_rejects += other.relint_rejects;
        self.wal_bytes += other.wal_bytes;
        self.wal_records += other.wal_records;
    }
}

wire_struct!(StoreStats {
    appends,
    dedup_skips,
    snapshots,
    replay_records,
    replay_micros,
    relint_rejects,
    wal_bytes,
    wal_records,
});
