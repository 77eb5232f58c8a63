//! The durable side of a host (DESIGN.md §18): every mutation is appended
//! to the store before it is acknowledged, and a restarted node rebuilds
//! itself from what the store replays.

use super::{InstallError, Op, RbayHost, RestoreSummary};
use crate::types::QueryId;
use rbay_store::{Store, WalRecord};
use simnet::obs::ObsEvent;
use simnet::SimDuration;

impl RbayHost {
    /// Appends one durable record — *before* the enclosing mutation is
    /// acknowledged to anyone. A no-op for in-memory hosts, and for
    /// records that would not change the durable image (the store dedupes,
    /// so per-round dynamic-tree re-joins and idempotent updates cost
    /// nothing). Store I/O errors are counted but never crash the host:
    /// the node degrades to in-memory behaviour instead of dropping live
    /// traffic.
    pub(super) fn persist(&mut self, rec: WalRecord) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let snaps_before = store.stats().snapshots;
        match store.append(&rec) {
            Ok(false) => {}
            Ok(true) => {
                let stats = store.stats();
                let node = self.addr;
                self.obs.count(node, "store_append");
                self.obs.record_with(|at| ObsEvent::StoreAppend {
                    at,
                    node,
                    kind: rec.kind(),
                    wal_records: stats.wal_records,
                });
                if stats.snapshots > snaps_before {
                    self.obs.count(node, "store_snapshot");
                    self.obs.record_with(|at| ObsEvent::StoreSnapshot {
                        at,
                        node,
                        snapshots: stats.snapshots,
                    });
                }
            }
            Err(_) => {
                let node = self.addr;
                self.obs.count(node, "store_append_err");
            }
        }
    }

    /// Adopts a durable store and restores its recovered image into this
    /// host: attributes land directly, recovered handler sources are
    /// re-compiled and **re-linted under the current policy** (a source
    /// that was admitted under `Warn` but fails under `Deny` is
    /// quarantined, not installed), subscriptions are queued as joins
    /// (the per-round retry machinery handles pre-join timing), and
    /// committed reservations are re-held. Call before the node joins the
    /// overlay.
    pub fn attach_store(&mut self, store: Box<Store>) -> RestoreSummary {
        let state = store.state().clone();
        let stats = store.stats();
        self.store = Some(store);
        let node = self.addr;
        self.obs
            .count_n(node, "store_replay_records", stats.replay_records);
        self.obs.record_with(|at| ObsEvent::StoreReplay {
            at,
            node,
            records: stats.replay_records,
            micros: stats.replay_micros,
        });
        let mut summary = RestoreSummary {
            attrs: state.attrs.len(),
            replay_records: stats.replay_records,
            replay_micros: stats.replay_micros,
            ..RestoreSummary::default()
        };
        // No invalidation multicast for restored attributes: the values
        // are not new, so any front-door entry caching them is still
        // coherent.
        self.attrs.extend(state.attrs);
        if let Some(src) = &state.node_aa {
            match self.build_aa("node", src) {
                Ok(inst) => {
                    self.node_aa = Some(inst);
                    summary.handlers += 1;
                }
                Err(e) => self.quarantine_on_restore("node", &e, &mut summary),
            }
        }
        for (attr, src) in &state.attr_aas {
            match self.build_aa(attr, src) {
                Ok(inst) => {
                    self.attr_aas.insert(attr.clone(), inst);
                    summary.handlers += 1;
                }
                Err(e) => self.quarantine_on_restore(attr, &e, &mut summary),
            }
        }
        for (topic, scope) in &state.subs {
            self.sub_requested.insert(*topic, self.now);
            self.ops.push_back(Op::Subscribe {
                topic: *topic,
                scope: *scope,
            });
            summary.subs += 1;
        }
        summary.committed = state.committed.len();
        self.committed = state.committed.iter().map(|&q| QueryId(q)).collect();
        if let Some(q) = state.reserved {
            // Commits hold their reservation far beyond the protocol
            // horizon (release is explicit); re-hold it the same way.
            self.reservation = Some((QueryId(q), self.now + SimDuration::from_secs(3_600)));
        }
        summary
    }

    /// Records one restore-time handler rejection: diagnostic kept on the
    /// host, counter surfaced through the store stats, node keeps booting.
    fn quarantine_on_restore(
        &mut self,
        label: &str,
        err: &InstallError,
        summary: &mut RestoreSummary,
    ) {
        self.quarantined.push((label.to_owned(), err.to_string()));
        if let Some(store) = self.store.as_mut() {
            store.note_relint_reject();
        }
        let node = self.addr;
        self.obs.count(node, "restore_relint_rejects");
        self.obs
            .record_with(|at| ObsEvent::RestoreRelintReject { at, node });
        summary.quarantined += 1;
    }
}

#[cfg(test)]
mod store_tests {
    use super::*;
    use crate::host::testkit::host_with_policy;
    use crate::host::LintPolicy;
    use crate::types::RbayPayload;
    use rbay_query::AttrValue;
    use rbay_store::FsyncPolicy;
    use scribe::ScribeHost;
    use simnet::{NodeAddr, SimTime};
    use std::path::{Path, PathBuf};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rbay-host-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Boots a host against `dir`: the same `attach_store` call serves
    /// both first boot (empty store, no-op restore) and recovery.
    fn durable_host(dir: &Path, policy: LintPolicy) -> (RbayHost, RestoreSummary) {
        let mut h = host_with_policy(policy);
        let (store, _) = rbay_store::Store::open(dir, FsyncPolicy::Never).unwrap();
        let summary = h.attach_store(Box::new(store));
        (h, summary)
    }

    #[test]
    fn restore_recovers_attrs_handlers_subs_and_commits() {
        let dir = tmp_dir("roundtrip");
        let committed_query = QueryId::new(NodeAddr(7), 3);
        {
            let (mut h, summary) = durable_host(&dir, LintPolicy::Warn);
            assert_eq!(
                (summary.attrs, summary.subs, summary.replay_records),
                (0, 0, 0)
            );
            h.post_resource("GPU", AttrValue::str("A100"));
            h.update_attr("CPU_utilization", AttrValue::Num(40.0));
            h.install_node_aa("AA = { onGet = function(q) return true end }")
                .unwrap();
            h.install_attr_aa("GPU", "AA = { onGet = function(q) return true end }")
                .unwrap();
            // A committed reservation, as the query protocol would leave it.
            h.reservation = Some((committed_query, SimTime::ZERO));
            h.on_direct(
                NodeAddr(7),
                RbayPayload::Commit {
                    query_id: committed_query,
                },
            );
        }
        let (mut h, summary) = durable_host(&dir, LintPolicy::Warn);
        assert_eq!(summary.attrs, 2);
        assert_eq!(summary.handlers, 2);
        assert_eq!(summary.quarantined, 0);
        assert_eq!(summary.subs, 1, "GPU=A100 tree re-joined");
        assert_eq!(summary.committed, 1);
        assert!(summary.replay_records >= 5);
        assert_eq!(h.attrs.get("GPU"), Some(&AttrValue::str("A100")));
        assert!(h.node_aa.is_some());
        assert!(h.attr_aas.contains_key("GPU"));
        assert_eq!(h.committed, vec![committed_query]);
        assert!(
            matches!(h.reservation, Some((q, _)) if q == committed_query),
            "committed reservation re-held"
        );
        // The restored subscription is queued as a join and tracked for
        // retry until attached.
        assert!(matches!(h.ops.pop_front(), Some(Op::Subscribe { .. })));
        assert_eq!(h.sub_requested.len(), 1);
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
            let (mut h, _) = durable_host(&dir, LintPolicy::Warn);
            h.install_node_aa(src).unwrap();
            assert!(h.node_aa.is_some(), "Warn admits the handler");
        }
        let (mut h, summary) = durable_host(&dir, LintPolicy::Deny);
        assert!(h.node_aa.is_none(), "Deny restore must not re-install");
        assert_eq!(summary.quarantined, 1);
        assert_eq!(summary.handlers, 0);
        assert_eq!(h.quarantined.len(), 1);
        let (label, diag) = &h.quarantined[0];
        assert_eq!(label, "node");
        assert!(
            diag.contains("lint"),
            "diagnostic names the lint rejection: {diag}"
        );
        assert_eq!(h.store.as_ref().unwrap().stats().relint_rejects, 1);
        // The node still boots and serves: queries fall through to the
        // default-grant path with no handler installed.
        assert!(h.check_on_get(None, "caller", None));
        // The source stays durable: rebooting back under Warn re-installs.
        drop(h);
        let (h, summary) = durable_host(&dir, LintPolicy::Warn);
        assert!(h.node_aa.is_some(), "policy rollback restores the handler");
        assert_eq!(summary.quarantined, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn per_round_dynamic_joins_do_not_bloat_the_wal() {
        let dir = tmp_dir("dedupe");
        let (mut h, _) = durable_host(&dir, LintPolicy::Off);
        h.install_node_aa("AA = { onSubscribe = function(q, tree) return true end }")
            .unwrap();
        h.dynamic_trees.push("spot=idle".into());
        let before = h.store.as_ref().unwrap().stats().appends;
        for _ in 0..5 {
            h.maintenance();
        }
        let appends = h.store.as_ref().unwrap().stats().appends - before;
        assert_eq!(appends, 1, "five identical joins, one WAL record");
        assert!(h.store.as_ref().unwrap().stats().dedup_skips >= 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
