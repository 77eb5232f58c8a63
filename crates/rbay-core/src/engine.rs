//! The query engine: the five-step protocol of the paper's Fig. 7, driven
//! from the issuing node.
//!
//! 1. Probe the root of every anchor tree (per target site) for its size.
//! 2. Collect the sizes.
//! 3. Anycast into the smallest tree with a `k`-slot buffer.
//! 4. Tree members check predicates and `onGet`, reserve themselves, and
//!    fill slots until `k` are found or the tree is exhausted.
//! 5. Commit the chosen nodes; release the rest. Conflicts retry under
//!    truncated exponential backoff.

use crate::host::{query_timer_token, Op, RbayHost, TIMER_KIND_RETRY, TIMER_KIND_TIMEOUT};
use crate::types::{
    Candidate, QueryId, QueryPending, QueryRecord, RbayEvent, RbayPayload, SearchState,
};
use rbay_query::{AttrValue, FromClause, Query, SortDir};
use simnet::{NodeAddr, SimDuration, SiteId};
use std::cmp::Ordering;
use std::rc::Rc;

/// Base slot for the truncated exponential backoff on conflicts.
const BACKOFF_SLOT: SimDuration = SimDuration::from_millis(100);
/// Maximum query attempts before reporting a partial result.
const MAX_ATTEMPTS: u32 = 5;

/// Orders two optional sort keys: present before absent, then by
/// [`AttrValue::cmp_total`] — an explicit total order (NaN sorts last,
/// kinds rank `Bool < Num < Str`), so the result of a GROUPBY sort does
/// not depend on the arrival order of candidates and `sort_by` can never
/// panic on a totality violation.
fn cmp_keys(a: &Option<AttrValue>, b: &Option<AttrValue>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Greater,
        (Some(_), None) => Ordering::Less,
        (Some(x), Some(y)) => x.cmp_total(y),
    }
}

impl RbayHost {
    /// Resolves a FROM clause to site ids. Unknown site names are dropped
    /// and repeated names deduplicated; use
    /// [`RbayHost::resolve_sites_report`] to also learn which names did
    /// not resolve.
    pub fn resolve_sites(&self, from: &FromClause) -> Vec<SiteId> {
        self.resolve_sites_report(from).0
    }

    /// Resolves a FROM clause to site ids, reporting the unknown names.
    ///
    /// A repeated site name (`FROM "Tokyo", "tokyo"`) resolves once —
    /// duplicating it would double the probe fan-out and make the query
    /// wait on a second answer from the same site. An unknown name
    /// resolves to nothing but is returned in the second component so the
    /// issuer can surface it ([`crate::QueryRecord::unknown_sites`])
    /// instead of silently searching fewer sites than the user asked for.
    pub fn resolve_sites_report(&self, from: &FromClause) -> (Vec<SiteId>, Vec<String>) {
        match from {
            FromClause::AllSites => (
                (0..self.site_names.len() as u16).map(SiteId).collect(),
                Vec::new(),
            ),
            FromClause::Sites(names) => {
                let mut resolved: Vec<SiteId> = Vec::new();
                let mut unknown: Vec<String> = Vec::new();
                for name in names {
                    match self
                        .site_names
                        .iter()
                        .position(|s| s.eq_ignore_ascii_case(name))
                    {
                        Some(i) => {
                            let site = SiteId(i as u16);
                            if !resolved.contains(&site) {
                                resolved.push(site);
                            }
                        }
                        None => {
                            if !unknown.iter().any(|u| u.eq_ignore_ascii_case(name)) {
                                unknown.push(name.clone());
                            }
                        }
                    }
                }
                (resolved, unknown)
            }
        }
    }

    /// Issues a query from this node (protocol step 1). Returns its id.
    /// Results arrive asynchronously; read them from
    /// [`RbayHost::queries`] after the simulation settles.
    pub fn issue_query(&mut self, query: Query, password: Option<String>) -> QueryId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = QueryId::new(self.addr, seq);
        let query = Rc::new(query);
        let anchor_trees: Vec<String> = query.anchors().map(|p| self.naming.tree_for(p)).collect();
        let (_, unknown_sites) = self.resolve_sites_report(&query.from);
        let record = QueryRecord {
            id,
            query: Rc::clone(&query),
            anchor_trees,
            password,
            issued_at: self.now,
            completed_at: None,
            attempts: 0,
            result: Vec::new(),
            satisfied: false,
            unknown_sites,
            pending: QueryPending::default(),
        };
        self.queries.insert(id, record);
        self.start_attempt(id);
        id
    }

    /// Where a query enters `site` on the given attempt: this node for its
    /// own site — the querier is its own site's gateway — and the border
    /// router [`RbayHost::gateway_for`] picks otherwise.
    fn site_entry(&self, site: SiteId, attempt: u32) -> NodeAddr {
        if site == self.site {
            self.addr
        } else {
            self.gateway_for(site, attempt)
        }
    }

    /// The one release rule: sends `Release` to every candidate in `slots`
    /// the query does not hold. A node keeps one reservation per query, so
    /// a second sighting of a candidate the query still counts — found by
    /// the running attempt, or committed by a satisfied query — is the
    /// same reservation, and releasing it would free a node the querier
    /// reports as taken.
    fn give_back(&mut self, query_id: QueryId, slots: &[Candidate]) {
        let Some(rec) = self.queries.get(&query_id) else {
            return;
        };
        let held: &[Candidate] = match rec.completed_at {
            None => &rec.pending.found,
            Some(_) if rec.satisfied && self.cfg.commit_results => &rec.result,
            Some(_) => &[],
        };
        for c in slots {
            if !held.iter().any(|h| h.addr == c.addr) {
                self.ops.push_back(Op::Direct {
                    to: c.addr,
                    payload: RbayPayload::Release { query_id },
                });
            }
        }
    }

    /// Launches (or relaunches) the probe fan-out for a query, arming a
    /// per-attempt timeout.
    fn start_attempt(&mut self, id: QueryId) {
        let Some(rec) = self.queries.get(&id) else {
            return;
        };
        let (node, seq, attempt) = (self.addr, id.seq(), rec.attempts);
        self.obs.count(node, "query_attempt");
        self.obs.record_with(|at| simnet::ObsEvent::QueryAttempt {
            at,
            node,
            seq,
            attempt,
        });
        self.ops.push_back(Op::Timer {
            delay: self.cfg.query_timeout,
            token: query_timer_token(id, attempt, TIMER_KIND_TIMEOUT),
        });
        let trees = rec.anchor_trees.len();
        let sites = self.resolve_sites(&rec.query.from);
        if trees == 0 || sites.is_empty() {
            // Nothing to search: complete unsatisfied immediately.
            self.complete_query(id, Vec::new());
            return;
        }
        let rec = self.queries.get_mut(&id).expect("record exists");
        rec.pending = QueryPending {
            probes: sites.iter().map(|s| (*s, vec![None; trees])).collect(),
            searches: Vec::new(),
            found: Vec::new(),
        };
        for site in sites {
            let trees = self.queries[&id].anchor_trees.clone();
            self.hand_to(
                self.site_entry(site, attempt),
                RbayPayload::RemoteProbe {
                    query_id: id,
                    reply_to: self.addr,
                    site,
                    trees,
                },
            );
        }
    }

    /// Records one tree-size probe answer (protocol step 2). When a site
    /// has all its answers, the search step launches there.
    pub fn record_probe(
        &mut self,
        query_id: QueryId,
        tree_idx: u8,
        site: SiteId,
        size: Option<u64>,
        exists: bool,
    ) {
        let Some(rec) = self.queries.get_mut(&query_id) else {
            return;
        };
        if rec.completed_at.is_some() {
            return;
        }
        let Some(entry) = rec.pending.probes.iter_mut().find(|(s, _)| *s == site) else {
            return;
        };
        if let Some(slot) = entry.1.get_mut(tree_idx as usize) {
            *slot = Some((size, exists));
        }
        if !entry.1.iter().all(|s| s.is_some()) {
            return;
        }
        // All probes for this site are in: pick the smallest existing tree.
        let best = entry
            .1
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some_and(|(_, exists)| exists))
            .min_by_key(|(_, s)| s.and_then(|(size, _)| size).unwrap_or(u64::MAX))
            .map(|(i, _)| i);
        rec.pending.probes.retain(|(s, _)| *s != site);
        let Some(best) = best else {
            // No anchor tree exists in this site: it contributes nothing.
            self.maybe_finalize(query_id);
            return;
        };
        rec.pending.searches.push(site);
        let state = SearchState {
            query_id,
            reply_to: self.addr,
            query: Rc::clone(&rec.query),
            password: rec.password.clone(),
            slots: Vec::new(),
        };
        let tree = rec.anchor_trees[best].clone();
        let attempt = rec.attempts;
        self.hand_to(
            self.site_entry(site, attempt),
            RbayPayload::RemoteSearch { state, tree },
        );
    }

    /// Records one site's search outcome (protocol step 4 completion).
    pub fn record_site_result(
        &mut self,
        query_id: QueryId,
        site: SiteId,
        slots: Vec<Candidate>,
        _satisfied: bool,
    ) {
        let Some(rec) = self.queries.get_mut(&query_id) else {
            return;
        };
        // Only one reply per site per attempt counts. A late one (the
        // query finished or moved on) or a second one (re-anycast: a
        // retried walk can be answered by both the old root's in-flight
        // search and the promoted replica root) is given back, so it
        // neither leaks slots nor double-counts in recall.
        if rec.completed_at.is_some() || !rec.pending.searches.contains(&site) {
            self.give_back(query_id, &slots);
            return;
        }
        rec.pending.searches.retain(|s| *s != site);
        for c in slots {
            if !rec.pending.found.iter().any(|f| f.addr == c.addr) {
                rec.pending.found.push(c);
            }
        }
        self.maybe_finalize(query_id);
    }

    /// Ends the attempt if nothing is outstanding.
    fn maybe_finalize(&mut self, query_id: QueryId) {
        let idle = |rec: &QueryRecord| {
            rec.completed_at.is_none()
                && rec.pending.probes.is_empty()
                && rec.pending.searches.is_empty()
        };
        if self.queries.get(&query_id).is_some_and(idle) {
            self.end_attempt(query_id, false);
        }
    }

    /// Step 5, the one ending of an attempt — every answer is in, or the
    /// timeout fired. With `k` found: settle the best `k` (commit, or give
    /// back when commits are off), give back the rest, complete. Short of
    /// `k`: give everything back and count the attempt, then complete with
    /// the partial result at [`MAX_ATTEMPTS`], else go again — at once after
    /// a timeout (the wait is already served; a silent or mid-repair site
    /// should not end the query, and the retry rotates to the site's next
    /// gateway and re-anycasts along the healed route), after a truncated
    /// exponential backoff otherwise.
    fn end_attempt(&mut self, query_id: QueryId, timed_out: bool) {
        let Some(rec) = self.queries.get_mut(&query_id) else {
            return;
        };
        let k = rec.query.k as usize;
        let mut found = std::mem::take(&mut rec.pending.found);
        if let Some((_, dir)) = &rec.query.order_by {
            found.sort_by(|a, b| {
                let ord = cmp_keys(&a.sort_key, &b.sort_key);
                match *dir {
                    SortDir::Asc => ord,
                    SortDir::Desc => ord.reverse(),
                }
            });
        }
        if found.len() >= k {
            let (chosen, extra) = found.split_at(k);
            if self.cfg.commit_results {
                for c in chosen {
                    self.ops.push_back(Op::Direct {
                        to: c.addr,
                        payload: RbayPayload::Commit { query_id },
                    });
                }
            } else {
                self.give_back(query_id, chosen);
            }
            self.give_back(query_id, extra);
            // An exact-size copy: the record outlives the attempt's buffer.
            self.complete_query(query_id, chosen.to_vec());
            return;
        }
        rec.attempts += 1;
        let attempts = rec.attempts;
        self.give_back(query_id, &found);
        if attempts >= MAX_ATTEMPTS {
            self.complete_query(query_id, found);
        } else if timed_out {
            self.start_attempt(query_id);
        } else {
            // Deterministic pseudo-random slot count in [0, 2^attempts - 1].
            let h = query_id
                .0
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(attempts as u64)
                .rotate_left(17);
            let slots = h % (1u64 << attempts.min(16));
            self.ops.push_back(Op::Timer {
                delay: BACKOFF_SLOT.saturating_mul(slots.max(1)),
                token: query_timer_token(query_id, attempts, TIMER_KIND_RETRY),
            });
        }
    }

    fn complete_query(&mut self, query_id: QueryId, result: Vec<Candidate>) {
        let now = self.now;
        let Some(rec) = self.queries.get_mut(&query_id) else {
            return;
        };
        let k = rec.query.k as usize;
        rec.satisfied = result.len() >= k;
        rec.result = result;
        rec.completed_at = Some(now);
        rec.pending = QueryPending::default();
        let satisfied = rec.satisfied;
        self.events.push(RbayEvent::QueryDone {
            query_id,
            issued_at: rec.issued_at,
            completed_at: now,
            satisfied,
        });
        let node = self.addr;
        let seq = query_id.seq();
        self.obs.count(node, "query_done");
        self.obs.record_with(|at| simnet::ObsEvent::QueryDone {
            at,
            node,
            seq,
            satisfied,
        });
        // Front-door completion: a leader walk fills the result cache and
        // releases its single-flight slot (coalesced waiters poll this
        // record directly, so no explicit fan-out message is needed).
        if self.frontdoor.is_some() {
            let (result, attrs) = {
                let rec = &self.queries[&query_id];
                (
                    rec.result.clone(),
                    crate::frontdoor::query_attrs(&rec.query),
                )
            };
            if let Some(fd) = self.frontdoor.as_mut() {
                if fd.complete(query_id, result, satisfied, attrs, now) {
                    self.obs.count(node, "fd_fill");
                }
            }
        }
    }

    /// Handles a query timer (timeout or backoff retry). Timers carry the
    /// attempt they were armed for; firings from superseded attempts are
    /// ignored.
    pub fn on_query_timer(&mut self, seq: u32, attempt: u32, kind: u64) {
        let id = QueryId::new(self.addr, seq);
        let Some(rec) = self.queries.get(&id) else {
            return;
        };
        if rec.completed_at.is_some() || rec.attempts & 0xFF != attempt {
            return;
        }
        match kind {
            TIMER_KIND_RETRY => self.start_attempt(id),
            TIMER_KIND_TIMEOUT => self.end_attempt(id, true),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::RbayConfig;
    use aascript::SharedSandbox;
    use pastry::NodeId;
    use rbay_query::parse_query;
    use simnet::{NodeAddr, SimTime};

    fn host_with_sites(n: u16) -> RbayHost {
        host_at(NodeAddr(0), n)
    }

    fn host_at(addr: NodeAddr, n: u16) -> RbayHost {
        RbayHost::new(
            Rc::new(RbayConfig::default()),
            NodeId(1),
            addr,
            SiteId(0),
            SharedSandbox::new(),
            (0..n).map(|i| vec![NodeAddr(i as u32 * 10)]).collect(),
            (0..n).map(|i| format!("site{i}")).collect(),
        )
    }

    fn drain_ops(h: &mut RbayHost) -> Vec<Op> {
        std::mem::take(&mut h.ops).into_iter().collect()
    }

    /// Addresses sent `Commit` / `Release` by `ops`, in order.
    fn settled(ops: &[Op]) -> (Vec<u32>, Vec<u32>) {
        let (mut commits, mut releases) = (Vec::new(), Vec::new());
        for o in ops {
            match o {
                Op::Direct {
                    to,
                    payload: RbayPayload::Commit { .. },
                } => commits.push(to.0),
                Op::Direct {
                    to,
                    payload: RbayPayload::Release { .. },
                } => releases.push(to.0),
                _ => {}
            }
        }
        (commits, releases)
    }

    /// Delivers to `holder` what `ops` address to it, as the network would.
    fn deliver(ops: Vec<Op>, holder: &mut RbayHost) {
        use scribe::ScribeHost;
        for o in ops {
            if let Op::Direct { to, payload } = o {
                if to == holder.addr {
                    holder.on_direct(NodeAddr(0), payload);
                }
            }
        }
    }

    fn cand(addr: u32, key: Option<f64>) -> Candidate {
        Candidate {
            id: NodeId(addr as u128),
            addr: NodeAddr(addr),
            site: SiteId(0),
            sort_key: key.map(AttrValue::Num),
        }
    }

    #[test]
    fn resolve_sites_handles_star_and_names() {
        let h = host_with_sites(3);
        assert_eq!(
            h.resolve_sites(&FromClause::AllSites),
            vec![SiteId(0), SiteId(1), SiteId(2)]
        );
        assert_eq!(
            h.resolve_sites(&FromClause::Sites(vec!["SITE2".into(), "nope".into()])),
            vec![SiteId(2)]
        );
    }

    #[test]
    fn resolve_sites_dedupes_and_reports_unknown() {
        let h = host_with_sites(3);
        // Repeats (case-insensitive) collapse; unknowns are reported once.
        let from = FromClause::Sites(vec![
            "site2".into(),
            "SITE2".into(),
            "site0".into(),
            "nope".into(),
            "NOPE".into(),
            "gone".into(),
        ]);
        let (resolved, unknown) = h.resolve_sites_report(&from);
        assert_eq!(resolved, vec![SiteId(2), SiteId(0)], "first-seen order");
        assert_eq!(unknown, vec!["nope".to_string(), "gone".to_string()]);
        assert_eq!(h.resolve_sites(&from), vec![SiteId(2), SiteId(0)]);
    }

    #[test]
    fn unknown_sites_land_on_the_query_record() {
        let mut h = host_with_sites(2);
        let q = Query {
            k: 1,
            from: FromClause::Sites(vec!["site1".into(), "atlantis".into()]),
            predicates: vec![rbay_query::Predicate {
                attr: "GPU".into(),
                op: rbay_query::CmpOp::Eq,
                value: AttrValue::Bool(true),
            }],
            order_by: None,
        };
        let id = h.issue_query(q, None);
        assert_eq!(h.queries[&id].unknown_sites, vec!["atlantis".to_string()]);
    }

    #[test]
    fn nan_sort_keys_sort_last_regardless_of_arrival_order() {
        let mk = |addr: u32, key: f64| cand(addr, Some(key));
        let run = |order: Vec<Candidate>| {
            let mut h = host_with_sites(1);
            let q = parse_query("SELECT 2 FROM * WHERE a = 1 GROUPBY load ASC").unwrap();
            let id = h.issue_query(q, None);
            drain_ops(&mut h);
            h.record_probe(id, 0, SiteId(0), Some(10), true);
            drain_ops(&mut h);
            h.record_site_result(id, SiteId(0), order, true);
            h.queries[&id]
                .result
                .iter()
                .map(|c| c.addr.0)
                .collect::<Vec<u32>>()
        };
        let a = run(vec![mk(1, f64::NAN), mk(2, 5.0), mk(3, 1.0)]);
        let b = run(vec![mk(3, 1.0), mk(1, f64::NAN), mk(2, 5.0)]);
        assert_eq!(a, vec![3, 2], "NaN never outranks a real key");
        assert_eq!(a, b, "result is arrival-order independent");
    }

    #[test]
    fn issue_query_probes_local_and_remote_sites() {
        let mut h = host_with_sites(2);
        let q = parse_query("SELECT 1 FROM * WHERE GPU = true").unwrap();
        h.issue_query(q, None);
        let ops = drain_ops(&mut h);
        // Local site: direct probe; remote site: RemoteProbe to gateway;
        // plus the timeout timer.
        assert!(ops.iter().any(|o| matches!(o, Op::Probe { .. })));
        assert!(ops.iter().any(|o| matches!(
            o,
            Op::Direct {
                to: NodeAddr(10),
                payload: RbayPayload::RemoteProbe { .. }
            }
        )));
        assert!(ops.iter().any(|o| matches!(o, Op::Timer { .. })));
    }

    #[test]
    fn smallest_existing_tree_wins_the_probe_round() {
        let mut h = host_with_sites(1);
        let q = parse_query("SELECT 1 FROM * WHERE a = 1 AND b = 2").unwrap();
        let id = h.issue_query(q, None);
        drain_ops(&mut h);
        // Tree 0 has 100 members; tree 1 has 5 → search must target tree 1
        // (= "b=2").
        h.record_probe(id, 0, SiteId(0), Some(100), true);
        h.record_probe(id, 1, SiteId(0), Some(5), true);
        let ops = drain_ops(&mut h);
        let anycasts: Vec<&Op> = ops
            .iter()
            .filter(|o| matches!(o, Op::Anycast { .. }))
            .collect();
        assert_eq!(anycasts.len(), 1);
        let Op::Anycast { topic, .. } = anycasts[0] else {
            unreachable!()
        };
        assert_eq!(*topic, h.tree_topic("b=2", SiteId(0)));
    }

    #[test]
    fn missing_trees_complete_queries_unsatisfied() {
        let mut h = host_with_sites(1);
        let q = parse_query("SELECT 1 FROM * WHERE nope = 1").unwrap();
        let id = h.issue_query(q, None);
        drain_ops(&mut h);
        h.record_probe(id, 0, SiteId(0), None, false);
        // With MAX_ATTEMPTS retries exhausted only after several rounds;
        // here no tree exists so the site contributes nothing and the
        // attempt finalizes unsatisfied → backoff timer queued.
        let rec = &h.queries[&id];
        assert!(rec.completed_at.is_none());
        assert_eq!(rec.attempts, 1);
        let ops = drain_ops(&mut h);
        assert!(ops.iter().any(|o| matches!(o, Op::Timer { .. })));
    }

    #[test]
    fn results_sort_by_groupby_direction_and_commit_k() {
        let mut h = host_with_sites(1);
        let q = parse_query("SELECT 2 FROM * WHERE a = 1 GROUPBY CPU_utilization DESC").unwrap();
        let id = h.issue_query(q, None);
        drain_ops(&mut h);
        h.record_probe(id, 0, SiteId(0), Some(10), true);
        drain_ops(&mut h);
        let mk = |addr: u32, key: f64| cand(addr, Some(key));
        h.record_site_result(
            id,
            SiteId(0),
            vec![mk(1, 5.0), mk(2, 9.0), mk(3, 7.0)],
            true,
        );
        let rec = &h.queries[&id];
        assert!(rec.satisfied);
        let picked: Vec<u32> = rec.result.iter().map(|c| c.addr.0).collect();
        assert_eq!(picked, vec![2, 3], "DESC: highest keys first");
        let (commits, releases) = settled(&drain_ops(&mut h));
        assert_eq!(commits, vec![2, 3]);
        assert_eq!(releases, vec![1]);
    }

    #[test]
    fn results_sort_lexicographically_on_string_keys() {
        let mut h = host_with_sites(1);
        let q = parse_query("SELECT 2 FROM * WHERE a = 1 GROUPBY OS ASC").unwrap();
        let id = h.issue_query(q, None);
        drain_ops(&mut h);
        h.record_probe(id, 0, SiteId(0), Some(10), true);
        drain_ops(&mut h);
        let mk = |addr: u32, key: Option<&str>| Candidate {
            id: NodeId(addr as u128),
            addr: NodeAddr(addr),
            site: SiteId(0),
            sort_key: key.map(AttrValue::str),
        };
        h.record_site_result(
            id,
            SiteId(0),
            vec![mk(1, Some("Ubuntu")), mk(2, None), mk(3, Some("CentOS"))],
            true,
        );
        let rec = &h.queries[&id];
        assert!(rec.satisfied);
        let picked: Vec<u32> = rec.result.iter().map(|c| c.addr.0).collect();
        // ASC lexicographic; missing keys sort last.
        assert_eq!(picked, vec![3, 1]);
    }

    #[test]
    fn shortfall_triggers_backoff_then_gives_up_partial() {
        let mut h = host_with_sites(1);
        let q = parse_query("SELECT 5 FROM * WHERE a = 1").unwrap();
        let id = h.issue_query(q, None);
        for round in 1..=MAX_ATTEMPTS {
            drain_ops(&mut h);
            h.record_probe(id, 0, SiteId(0), Some(2), true);
            drain_ops(&mut h);
            h.record_site_result(id, SiteId(0), vec![cand(9, None)], true);
            let rec = &h.queries[&id];
            if round < MAX_ATTEMPTS {
                assert!(rec.completed_at.is_none(), "round {round} should retry");
                assert_eq!(rec.attempts, round);
                // The retry timer is armed; simulate its firing.
                let att = h.queries[&id].attempts;
                h.on_query_timer(id.seq(), att, TIMER_KIND_RETRY);
            } else {
                assert!(rec.completed_at.is_some(), "gave up after max attempts");
                assert!(!rec.satisfied);
                assert_eq!(rec.result.len(), 1, "partial result reported");
            }
        }
    }

    #[test]
    fn timeout_completes_with_what_arrived() {
        let mut h = host_with_sites(3);
        h.now = SimTime::from_millis(100);
        let q = parse_query("SELECT 2 FROM * WHERE a = 1 GROUPBY load ASC").unwrap();
        let id = h.issue_query(q, None);
        drain_ops(&mut h);
        // Two sites answer with three candidates between them; the third
        // site never does.
        h.record_probe(id, 0, SiteId(0), Some(3), true);
        h.record_probe(id, 0, SiteId(1), Some(3), true);
        drain_ops(&mut h);
        h.record_site_result(
            id,
            SiteId(0),
            vec![cand(1, Some(5.0)), cand(2, Some(1.0))],
            true,
        );
        h.record_site_result(id, SiteId(1), vec![cand(11, Some(3.0))], false);
        assert!(h.queries[&id].completed_at.is_none(), "site2 still pending");
        h.now = SimTime::from_millis(5_200);
        let att = h.queries[&id].attempts;
        h.on_query_timer(id.seq(), att, TIMER_KIND_TIMEOUT);
        let rec = &h.queries[&id];
        assert!(rec.completed_at.is_some());
        assert!(rec.satisfied, "k=2 was reached despite the missing site");
        let picked: Vec<u32> = rec.result.iter().map(|c| c.addr.0).collect();
        assert_eq!(picked, vec![2, 11], "the best k in GROUPBY order");
        // Satisfied means held: the chosen are committed, only the surplus
        // is given back.
        let (commits, releases) = settled(&drain_ops(&mut h));
        assert_eq!(commits, vec![2, 11]);
        assert_eq!(releases, vec![1]);
    }

    #[test]
    fn timeout_with_unsatisfied_partial_retries() {
        let mut h = host_with_sites(2);
        h.now = SimTime::from_millis(100);
        let q = parse_query("SELECT 2 FROM * WHERE a = 1").unwrap();
        let id = h.issue_query(q, None);
        drain_ops(&mut h);
        h.record_probe(id, 0, SiteId(0), Some(3), true);
        drain_ops(&mut h);
        // One slot arrives, but k=2 and the other site is silent — e.g.
        // its rendezvous root died mid-repair. The timeout must release
        // the partial and re-issue along the healed route, not complete
        // unsatisfied on the first attempt.
        h.record_site_result(id, SiteId(0), vec![cand(3, None)], true);
        h.now = SimTime::from_millis(5_200);
        let att = h.queries[&id].attempts;
        h.on_query_timer(id.seq(), att, TIMER_KIND_TIMEOUT);
        let rec = &h.queries[&id];
        assert!(rec.completed_at.is_none(), "shortfall must retry");
        assert_eq!(rec.attempts, 1);
        let ops = drain_ops(&mut h);
        assert!(
            ops.iter().any(|o| matches!(
                o,
                Op::Direct {
                    to: NodeAddr(3),
                    payload: RbayPayload::Release { .. }
                }
            )),
            "partial reservation released before the retry"
        );
        assert!(
            ops.iter().any(|o| matches!(o, Op::Probe { .. })),
            "retry re-probes"
        );
    }

    #[test]
    fn duplicate_site_result_is_released_not_double_counted() {
        let mut h = host_with_sites(2);
        let q = parse_query("SELECT 2 FROM * WHERE a = 1").unwrap();
        let id = h.issue_query(q, None);
        drain_ops(&mut h);
        h.record_probe(id, 0, SiteId(0), Some(3), true);
        h.record_probe(id, 0, SiteId(1), Some(3), true);
        drain_ops(&mut h);
        // Holder 1, as the walk left it: reserved for the query.
        let mut holder = host_at(NodeAddr(1), 2);
        holder.reservation = Some((id, SimTime::from_millis(2_000)));
        h.record_site_result(id, SiteId(0), vec![cand(1, None)], false);
        assert_eq!(h.queries[&id].pending.found.len(), 1);
        deliver(drain_ops(&mut h), &mut holder);
        // The same site answers again — the old root's in-flight reply
        // plus the promoted replica's. The echo must not double-count, and
        // must not free holder 1: the query still counts it, and a node
        // holds one reservation per query.
        h.record_site_result(id, SiteId(0), vec![cand(1, None), cand(2, None)], false);
        let rec = &h.queries[&id];
        assert!(rec.completed_at.is_none());
        assert_eq!(rec.pending.found.len(), 1, "echo not double-counted");
        let ops = drain_ops(&mut h);
        assert_eq!(settled(&ops).1, vec![2], "only the stranger is freed");
        deliver(ops, &mut holder);
        // The other site completes the attempt; the commit finds holder
        // 1's reservation still in place.
        h.record_site_result(id, SiteId(1), vec![cand(11, None)], false);
        let rec = &h.queries[&id];
        assert!(rec.satisfied);
        let ops = drain_ops(&mut h);
        assert_eq!(settled(&ops), (vec![1, 11], vec![]));
        deliver(ops, &mut holder);
        assert_eq!(holder.committed, vec![id]);
        assert!(holder.reservation.is_some_and(|(by, _)| by == id));
    }

    #[test]
    fn late_results_release_reservations() {
        let mut h = host_with_sites(1);
        let q = parse_query("SELECT 1 FROM * WHERE a = 1").unwrap();
        let id = h.issue_query(q, None);
        drain_ops(&mut h);
        h.record_probe(id, 0, SiteId(0), Some(3), true);
        drain_ops(&mut h);
        h.record_site_result(id, SiteId(0), vec![cand(1, None)], true);
        assert!(h.queries[&id].completed_at.is_some());
        assert_eq!(settled(&drain_ops(&mut h)), (vec![1], vec![]));
        // A duplicate/late echo now arrives, naming the committed holder
        // and a stranger: the stranger is freed, the committed one is not.
        h.record_site_result(id, SiteId(0), vec![cand(1, None), cand(2, None)], true);
        assert_eq!(settled(&drain_ops(&mut h)), (vec![], vec![2]));
    }

    /// The querier is its own site's gateway: what it queues for its own
    /// site is, op for op, what a gateway queues when asked by message.
    #[test]
    fn own_site_steps_queue_what_the_gateway_arms_queue() {
        use scribe::ScribeHost;
        let dbg = |ops: &[Op]| ops.iter().map(|o| format!("{o:?}")).collect::<Vec<_>>();
        let mut h = host_with_sites(1);
        let q = Rc::new(parse_query("SELECT 1 FROM * WHERE a = 1 AND b = 2").unwrap());
        let id = h.issue_query((*q).clone(), None);
        let probes = drain_ops(&mut h);
        assert!(matches!(probes[0], Op::Timer { .. }));
        h.on_direct(
            NodeAddr(10),
            RbayPayload::RemoteProbe {
                query_id: id,
                reply_to: h.addr,
                site: SiteId(0),
                trees: vec!["a=1".into(), "b=2".into()],
            },
        );
        assert_eq!(dbg(&probes[1..]), dbg(&drain_ops(&mut h)));

        h.record_probe(id, 0, SiteId(0), Some(100), true);
        h.record_probe(id, 1, SiteId(0), Some(5), true);
        let search = drain_ops(&mut h);
        assert_eq!(search.len(), 1);
        h.on_direct(
            NodeAddr(10),
            RbayPayload::RemoteSearch {
                state: SearchState {
                    query_id: id,
                    reply_to: h.addr,
                    query: q,
                    password: None,
                    slots: Vec::new(),
                },
                tree: "b=2".into(),
            },
        );
        assert_eq!(dbg(&search), dbg(&drain_ops(&mut h)));
    }
}
