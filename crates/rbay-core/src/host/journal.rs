//! The durable side of a host (DESIGN.md §18): every mutation is appended
//! to its pack's store before it is acknowledged, and a restarted node
//! rebuilds itself from the state the store's open recovered for it.

use super::{InstallError, Op, RbayHost};
use crate::types::{Hold, QueryId};
use rbay_query::AttrValue;
use rbay_store::{DurableState, Store, WalRecord};
use scribe::TopicId;
use simnet::obs::ObsEvent;
use simnet::SiteId;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// A journaling host's handle on the store its pack shares, and what the
/// host needs to skip the writes that repeat with no operator action.
#[derive(Debug)]
pub(crate) struct Journal {
    store: Rc<RefCell<Store>>,
    /// The subscriptions the journal holds, topic → scope, so the
    /// per-round dynamic-tree `SubAdd`/`SubRemove` are written once.
    subs: BTreeMap<TopicId, Option<SiteId>>,
    /// Attributes whose last put failed to append: the journal may not
    /// hold the host's value, so the next put of it is written.
    unjournaled: BTreeSet<String>,
    /// Writes skipped because they would not change the journaled state.
    pub(crate) dedup_skips: u64,
}

impl Journal {
    /// Whether `rec` repeats what is already journaled: an attribute put
    /// of the value `attrs` holds, or a subscription record that does not
    /// change `subs`.
    fn repeats(&self, attrs: &BTreeMap<String, AttrValue>, rec: &WalRecord) -> bool {
        match rec {
            WalRecord::AttrPut { attr, value } => {
                attrs.get(attr) == Some(value) && !self.unjournaled.contains(attr)
            }
            WalRecord::SubAdd { topic, scope } => self.subs.get(topic) == Some(scope),
            WalRecord::SubRemove { topic } => !self.subs.contains_key(topic),
            _ => false,
        }
    }

    /// Notes whether `rec` reached the journal.
    fn appended(&mut self, rec: &WalRecord, ok: bool) {
        match rec {
            WalRecord::AttrPut { attr, .. } if ok => {
                self.unjournaled.remove(attr);
            }
            WalRecord::AttrPut { attr, .. } => {
                self.unjournaled.insert(attr.clone());
            }
            WalRecord::SubAdd { topic, scope } if ok => {
                self.subs.insert(*topic, *scope);
            }
            WalRecord::SubRemove { topic } if ok => {
                self.subs.remove(topic);
            }
            _ => {}
        }
    }
}

impl RbayHost {
    /// Appends one durable record — *before* the enclosing mutation is
    /// acknowledged to anyone. A no-op for in-memory hosts, and for
    /// records that repeat what is journaled (so per-round dynamic-tree
    /// re-joins and idempotent updates cost nothing). Store I/O errors
    /// are counted but never crash the host: the node degrades to
    /// in-memory behaviour instead of dropping live traffic.
    pub(super) fn persist(&mut self, rec: WalRecord) {
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        if journal.repeats(&self.attrs, &rec) {
            journal.dedup_skips += 1;
            return;
        }
        let (before, appended, stats) = {
            let mut store = journal.store.borrow_mut();
            let before = store.stats().snapshots;
            (before, store.append_for(self.addr, &rec), store.stats())
        };
        journal.appended(&rec, appended.is_ok());
        match appended {
            Ok(()) => {
                let (node, at) = (self.addr, self.now);
                self.obs.record_with(|| ObsEvent::StoreAppend {
                    at,
                    node,
                    kind: rec.kind(),
                    wal_records: stats.wal_records,
                });
                if stats.snapshots > before {
                    self.obs.record_with(|| ObsEvent::StoreSnapshot {
                        at,
                        node,
                        snapshots: stats.snapshots,
                    });
                }
            }
            Err(_) => self.obs.count("store_append_err"),
        }
    }

    /// Journals into `store`, which this host's pack shares, from now on,
    /// and restores `state`, what the store's open recovered for this
    /// host: attributes land directly, recovered handler sources are
    /// re-compiled and **re-linted under the current policy** (a source
    /// that was admitted under `Warn` but fails under `Deny` is
    /// quarantined, not installed), subscriptions are queued as joins
    /// (the per-round retry machinery handles pre-join timing), the
    /// commit still held is held again, and the commit count carries on.
    /// Call before the node joins the overlay. What was restored is then
    /// read off the host itself, and what was replayed off the store's
    /// [`Store::stats`].
    pub fn attach_journal(&mut self, store: Rc<RefCell<Store>>, state: DurableState) {
        let stats = store.borrow().stats();
        self.journal = Some(Box::new(Journal {
            store,
            subs: state.subs.clone(),
            unjournaled: BTreeSet::new(),
            dedup_skips: 0,
        }));
        self.obs.record_with(|| ObsEvent::StoreReplay {
            at: self.now,
            node: self.addr,
            records: stats.replay_records,
            micros: stats.replay_micros,
        });
        // No invalidation multicast for restored attributes: the values
        // are not new, so any front-door entry caching them is still
        // coherent.
        self.attrs.extend(state.attrs);
        if let Some(src) = &state.node_aa {
            match self.build_aa("node", src) {
                Ok(inst) => self.node_aa = Some(inst),
                Err(e) => self.quarantine_on_restore("node", &e),
            }
        }
        for (attr, src) in &state.attr_aas {
            match self.build_aa(attr, src) {
                Ok(inst) => {
                    self.attr_aas.insert(attr.clone(), inst);
                }
                Err(e) => self.quarantine_on_restore(attr, &e),
            }
        }
        for (topic, scope) in state.subs {
            self.sub_requested.insert(topic, self.now);
            self.ops.push_back(Op::Subscribe { topic, scope });
        }
        self.commits = state.commits;
        // Only a commit is journaled, so what the store holds is one.
        self.hold = state.reserved.map(|q| Hold::Committed { by: QueryId(q) });
    }

    /// Records one restore-time handler rejection: the diagnostic is kept
    /// on the host (the pack counts these as `relint_rejects`), and the
    /// node keeps booting.
    fn quarantine_on_restore(&mut self, label: &str, err: &InstallError) {
        self.quarantined.push((label.to_owned(), err.to_string()));
        self.obs.record_with(|| ObsEvent::RestoreRelintReject {
            at: self.now,
            node: self.addr,
        });
    }
}

#[cfg(test)]
mod store_tests {
    use super::*;
    use crate::host::testkit::host_with_policy;
    use crate::host::LintPolicy;
    use crate::types::{RbayPayload, SearchState};
    use rbay_query::{parse_query, AttrValue};
    use rbay_store::FsyncPolicy;
    use scribe::{ScribeHost, Visit};
    use simnet::{NodeAddr, SimTime, ThinVec};
    use std::path::{Path, PathBuf};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rbay-host-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Boots a host against `dir`: the same `attach_journal` call serves
    /// both first boot (empty store, no-op restore) and recovery.
    fn durable_host(dir: &Path, policy: LintPolicy) -> RbayHost {
        let mut h = host_with_policy(policy);
        let (store, mut report) = Store::open(dir, FsyncPolicy::Never).unwrap();
        let state = report.members.remove(&h.addr).unwrap_or_default();
        h.attach_journal(Rc::new(RefCell::new(store)), state);
        h
    }

    fn journal(h: &RbayHost) -> &Journal {
        h.journal.as_ref().unwrap()
    }

    /// WAL records the host's store replayed when it was opened.
    fn replayed(h: &RbayHost) -> u64 {
        journal(h).store.borrow().stats().replay_records
    }

    #[test]
    fn restore_recovers_attrs_handlers_subs_and_commits() {
        let dir = tmp_dir("roundtrip");
        let committed_query = QueryId::new(NodeAddr(7), 3);
        {
            let mut h = durable_host(&dir, LintPolicy::Warn);
            assert_eq!(
                (h.attrs.len(), h.sub_requested.len(), replayed(&h)),
                (0, 0, 0)
            );
            h.post_resource("GPU", AttrValue::str("A100"));
            h.update_attr("CPU_utilization", AttrValue::Num(40.0));
            h.install_node_aa("AA = { onGet = function(q) return true end }")
                .unwrap();
            h.install_attr_aa("GPU", "AA = { onGet = function(q) return true end }")
                .unwrap();
            // A walk's reservation, then its commit, as the query protocol
            // would leave them.
            h.hold = Some(Hold::Reserved {
                by: committed_query,
                until: SimTime::from_millis(2_000),
            });
            h.on_direct(
                NodeAddr(7),
                RbayPayload::Commit {
                    query_id: committed_query,
                },
            );
        }
        let mut h = durable_host(&dir, LintPolicy::Warn);
        assert_eq!(h.attrs.len(), 2);
        assert!(h.quarantined.is_empty());
        assert!(replayed(&h) >= 5);
        assert_eq!(h.attrs.get("GPU"), Some(&AttrValue::str("A100")));
        assert!(h.node_aa.is_some());
        assert!(h.attr_aas.contains_key("GPU"));
        assert_eq!(h.commits, 1);
        assert_eq!(
            h.hold,
            Some(Hold::Committed {
                by: committed_query
            })
        );
        // The restored subscription (the GPU=A100 tree) is queued as a
        // join and tracked for retry until attached.
        assert!(matches!(h.ops.pop_front(), Some(Op::Subscribe { .. })));
        assert_eq!(h.sub_requested.len(), 1);
        // The restored commit has no horizon either: an hour on, another
        // query's walk passes the node by.
        h.now = SimTime::from_secs(3_601);
        let mut walk = SearchState {
            query_id: QueryId::new(NodeAddr(1), 1),
            reply_to: NodeAddr(1),
            query: Rc::new(parse_query(r#"SELECT 1 FROM * WHERE GPU = "A100""#).unwrap()),
            password: None,
            slots: ThinVec::new(),
        };
        assert_eq!(h.visit_search(&mut walk), Visit::Continue);
        // The client's release ends it, and a restart does not re-hold it.
        h.release_reservation();
        assert_eq!(h.hold, None);
        drop(h);
        let h = durable_host(&dir, LintPolicy::Warn);
        assert_eq!((h.hold, h.commits), (None, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite: a handler admitted under `Warn` must be quarantined —
    /// not re-installed — when the node restarts under `Deny`, with the
    /// diagnostic recorded and boot completing normally.
    #[test]
    fn restore_relints_under_current_policy_and_quarantines() {
        let dir = tmp_dir("quarantine");
        // `onGte` is a typo'd handler name: UnknownHandler, a warning
        // under Warn but an error under Deny.
        let src = "AA = { onGte = function(q) return true end }";
        {
            let mut h = durable_host(&dir, LintPolicy::Warn);
            h.install_node_aa(src).unwrap();
            assert!(h.node_aa.is_some(), "Warn admits the handler");
        }
        let mut h = durable_host(&dir, LintPolicy::Deny);
        assert!(h.node_aa.is_none(), "Deny restore must not re-install");
        assert!(h.attr_aas.is_empty());
        assert_eq!(h.quarantined.len(), 1);
        let (label, diag) = &h.quarantined[0];
        assert_eq!(label, "node");
        assert!(
            diag.contains("lint"),
            "diagnostic names the lint rejection: {diag}"
        );
        // The node still boots and serves: queries fall through to the
        // default-grant path with no handler installed.
        assert!(h.check_on_get(None, "caller", None));
        // The source stays durable: rebooting back under Warn re-installs.
        drop(h);
        let h = durable_host(&dir, LintPolicy::Warn);
        assert!(h.node_aa.is_some(), "policy rollback restores the handler");
        assert!(h.quarantined.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn per_round_dynamic_joins_do_not_bloat_the_wal() {
        let dir = tmp_dir("dedupe");
        let mut h = durable_host(&dir, LintPolicy::Off);
        h.install_node_aa("AA = { onSubscribe = function(q, tree) return true end }")
            .unwrap();
        h.dynamic_trees.push("spot=idle".into());
        let appends = |h: &RbayHost| journal(h).store.borrow().stats().appends;
        let before = appends(&h);
        for _ in 0..5 {
            h.maintenance();
        }
        assert_eq!(
            appends(&h) - before,
            1,
            "five identical joins, one WAL record"
        );
        assert_eq!(journal(&h).dedup_skips, 4);
        // A restart does not write it again either: the journaled
        // subscription comes back with the state.
        drop(h);
        let mut h = durable_host(&dir, LintPolicy::Off);
        h.dynamic_trees.push("spot=idle".into());
        h.maintenance();
        assert_eq!((appends(&h), journal(&h).dedup_skips), (0, 1));
        // Putting the value an attribute holds is not written either.
        h.update_attr("CPU", AttrValue::Num(1.0));
        h.update_attr("CPU", AttrValue::Num(1.0));
        assert_eq!((appends(&h), journal(&h).dedup_skips), (1, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A put whose append failed is not taken as journaled: the same
    /// value put again is written, until one append of it succeeds.
    #[test]
    fn a_put_that_failed_to_append_is_written_again() {
        let dir = tmp_dir("failed-append");
        let mut h = durable_host(&dir, LintPolicy::Off);
        let appends = |h: &RbayHost| journal(h).store.borrow().stats().appends;
        h.update_attr("CPU", AttrValue::Num(1.0));
        {
            let mut store = journal(&h).store.borrow_mut();
            store.snapshot().unwrap();
            // Every append compacts from now on.
            store.set_snapshot_thresholds(1, u64::MAX);
        }
        // With the live snapshot unreadable each append's compaction, and
        // so the append, fails.
        let (snap, aside) = (dir.join("snapshot-1.snap"), dir.join("aside"));
        std::fs::rename(&snap, &aside).unwrap();
        h.update_attr("CPU", AttrValue::Num(2.0));
        h.update_attr("CPU", AttrValue::Num(2.0));
        assert_eq!((appends(&h), journal(&h).dedup_skips), (3, 0));
        std::fs::rename(&aside, &snap).unwrap();
        h.update_attr("CPU", AttrValue::Num(2.0));
        h.update_attr("CPU", AttrValue::Num(2.0));
        assert_eq!((appends(&h), journal(&h).dedup_skips), (4, 1));
        drop(h);
        let h = durable_host(&dir, LintPolicy::Off);
        assert_eq!(h.attrs.get("CPU"), Some(&AttrValue::Num(2.0)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
