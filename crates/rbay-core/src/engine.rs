//! The query engine: the five-step protocol of the paper's Fig. 7. The
//! querier hands the query to each target site; steps 1–3 run at the node
//! it enters the site at — the querier itself for its own site, the site's
//! border router otherwise.
//!
//! 1. Probe the root of every anchor tree in the site for its size.
//! 2. Collect the sizes.
//! 3. Anycast into the smallest tree with a `k`-slot buffer.
//! 4. Tree members check predicates and `onGet`, reserve themselves, and
//!    fill slots until `k` are found or the tree is exhausted; the filled
//!    buffer goes back to the querier.
//! 5. The querier commits the chosen nodes and releases the rest.
//!    Conflicts retry under truncated exponential backoff.

use crate::host::{query_timer_token, Op, RbayHost, TIMER_KIND_RETRY, TIMER_KIND_TIMEOUT};
use crate::types::{Candidate, QueryId, QueryPending, QueryRecord, RbayPayload, SearchState};
use rbay_query::{AttrValue, FromClause, Query, SortDir};
use simnet::{NodeAddr, SimDuration, SimTime, SiteId, ThinVec};
use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::rc::Rc;

/// Base slot for the truncated exponential backoff on conflicts.
const BACKOFF_SLOT: SimDuration = SimDuration::from_millis(100);
/// Maximum query attempts before reporting a partial result.
const MAX_ATTEMPTS: u32 = 5;

/// A site's probe step, kept by the node the query entered the site at
/// until the site's last tree-size answer arrives.
#[derive(Debug)]
pub(crate) struct SiteProbe {
    /// When the query entered the site here.
    since: SimTime,
    /// The walk to start once every answer is in.
    state: SearchState,
    /// The anchor trees probed, in the query's anchor order.
    trees: Vec<String>,
    /// Per tree, once answered: `(size if the tree exists, exists)`.
    answers: Vec<Option<(Option<u64>, bool)>>,
}

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
    /// Resolves a FROM clause to site ids, and reports the names that did
    /// not resolve.
    ///
    /// A repeated site name (`FROM "Tokyo", "tokyo"`) resolves once —
    /// duplicating it would search the same site twice and make the query
    /// wait on a second answer from it. An unknown name resolves to
    /// nothing but is returned in the second component so the issuer can
    /// surface it ([`crate::QueryRecord::unknown_sites`]) instead of
    /// silently searching fewer sites than the user asked for.
    fn resolve_sites(&self, from: &FromClause) -> (Vec<SiteId>, Vec<String>) {
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

    /// Issues a query from this node. Returns its id.
    /// Results arrive asynchronously; read them from
    /// [`RbayHost::queries`] after the simulation settles. A record can
    /// be read from issue until this node's first issue more than
    /// `query_timeout` after the query completed: that issue retires it
    /// ([`RbayHost::retired`]). No timer.
    pub fn issue_query(
        &mut self,
        query: impl Into<Rc<Query>>,
        password: Option<String>,
    ) -> QueryId {
        self.retire_finished();
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = QueryId::new(self.addr, seq);
        let query = query.into();
        // One probe per distinct tree — a repeated predicate, or two minor
        // attributes hybrid naming links to one major tree, name the same
        // one — and no more than a probe's `u8` index tells apart. The walk
        // still checks every predicate, so neither cut changes the result.
        let mut anchor_trees: Vec<String> = Vec::new();
        for tree in query.anchors().map(|p| self.naming.tree_for(p)) {
            if anchor_trees.len() > usize::from(u8::MAX) {
                break;
            }
            if !anchor_trees.contains(&tree) {
                anchor_trees.push(tree);
            }
        }
        let (_, unknown_sites) = self.resolve_sites(&query.from);
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

    /// Drops the oldest records while each completed more than
    /// `query_timeout` ago, stopping at the first still open or too
    /// recent. A host holds only its own queries, keyed by origin then
    /// seq, so key order is issue order.
    fn retire_finished(&mut self) {
        let (now, horizon) = (self.now, self.cfg.query_timeout);
        while let Some(oldest) = self.queries.first_entry() {
            match oldest.get().completed_at {
                Some(done) if now.saturating_since(done) > horizon => {
                    oldest.remove();
                }
                _ => break,
            }
        }
    }

    /// The seq of this node's oldest record still kept, or the next seq
    /// when none is.
    fn first_kept_seq(&self) -> u32 {
        self.queries
            .first_key_value()
            .map_or(self.next_seq, |(id, _)| id.seq())
    }

    /// Whether `id` is a query this node issued whose record it has
    /// retired: every seq below the first record it still keeps.
    pub fn retired(&self, id: QueryId) -> bool {
        id.origin() == self.addr && id.seq() < self.first_kept_seq()
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
    /// reports as taken. A retired query's held set went with its record,
    /// so every slot is released: a node the query committed ignores the
    /// `Release`, and one it only reserved is freed instead of lapsing.
    fn give_back(&mut self, query_id: QueryId, slots: &[Candidate]) {
        let held: &[Candidate] = match self.queries.get(&query_id) {
            Some(rec) => match rec.completed_at {
                None => &rec.pending.found,
                Some(_) if rec.satisfied && self.cfg.commit_results => &rec.result,
                Some(_) => &[],
            },
            None if self.retired(query_id) => &[],
            None => return,
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

    /// Launches (or relaunches) a query: arms a per-attempt timeout and
    /// hands the query to every resolved site's entry node.
    fn start_attempt(&mut self, id: QueryId) {
        let Some(rec) = self.queries.get(&id) else {
            return;
        };
        let (node, seq, attempt) = (self.addr, id.seq(), rec.attempts);
        self.obs.record_with(|| simnet::ObsEvent::QueryAttempt {
            at: self.now,
            node,
            seq,
            attempt,
        });
        self.ops.push_back(Op::Timer {
            delay: self.cfg.query_timeout,
            token: query_timer_token(id, attempt, TIMER_KIND_TIMEOUT),
        });
        let (sites, _) = self.resolve_sites(&rec.query.from);
        if rec.anchor_trees.is_empty() || sites.is_empty() {
            // Nothing to search: complete unsatisfied immediately.
            self.complete_query(id, Vec::new());
            return;
        }
        let state = SearchState {
            query_id: id,
            reply_to: self.addr,
            query: Rc::clone(&rec.query),
            password: rec.password.clone(),
            slots: ThinVec::new(),
        };
        let trees = rec.anchor_trees.clone();
        self.queries.get_mut(&id).expect("record exists").pending = QueryPending {
            searches: sites.clone(),
            found: Vec::new(),
        };
        for site in sites {
            let payload = RbayPayload::SiteSearch {
                state: Box::new(state.clone()),
                trees: trees.clone(),
            };
            self.hand_to(self.site_entry(site, attempt), payload);
        }
    }

    /// A query enters this node's site here: probe the root of each of
    /// its anchor trees in this site (protocol step 1) and keep the walk
    /// until the answers are in. Entries older than the query timeout are
    /// dropped first: their query has timed out or ended without them.
    pub(crate) fn enter_site(&mut self, state: SearchState, trees: Vec<String>) {
        let (now, timeout) = (self.now, self.cfg.query_timeout);
        self.site_probes
            .retain(|_, p| now.saturating_since(p.since) <= timeout);
        let query_id = state.query_id;
        for (i, tree) in trees.iter().enumerate() {
            self.ops.push_back(Op::Probe {
                topic: self.tree_topic(tree, self.site),
                scope: self.routing_scope(self.site),
                payload: RbayPayload::SizeProbe {
                    query_id,
                    tree_idx: i as u8,
                },
            });
        }
        let answers = vec![None; trees.len()];
        let probe = SiteProbe {
            since: now,
            state,
            trees,
            answers,
        };
        self.site_probes.insert(query_id, probe);
    }

    /// Records one tree-size answer at the site's entry node (protocol
    /// step 2). With the site's last answer in, the entry leaves and the
    /// walk starts in the smallest existing tree (step 3); where no anchor tree
    /// exists, the querier gets an empty answer for the site at once.
    pub(crate) fn record_probe(
        &mut self,
        query_id: QueryId,
        tree_idx: u8,
        size: Option<u64>,
        exists: bool,
    ) {
        let Entry::Occupied(mut probe) = self.site_probes.entry(query_id) else {
            return;
        };
        if let Some(slot) = probe.get_mut().answers.get_mut(tree_idx as usize) {
            *slot = Some((size, exists));
        }
        if !probe.get().answers.iter().all(Option::is_some) {
            return;
        }
        let SiteProbe {
            state,
            mut trees,
            answers,
            ..
        } = probe.remove();
        let best = answers
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_some_and(|(_, exists)| exists))
            .min_by_key(|(_, a)| a.and_then(|(size, _)| size).unwrap_or(u64::MAX))
            .map(|(i, _)| i);
        match best {
            Some(i) => self.search_here(state, trees.swap_remove(i)),
            None => self.hand_to(
                state.reply_to,
                RbayPayload::SearchEcho {
                    query_id,
                    site: self.site,
                    slots: Vec::new(),
                    satisfied: false,
                },
            ),
        }
    }

    /// The queries this node is the entry node of and still collects
    /// tree-size answers for, with when each entered the site here.
    /// rbay-check's `site-probe-bounded` holds every entry to the query
    /// timeout, and none to a query this node has completed.
    pub fn site_probes(&self) -> impl Iterator<Item = (QueryId, SimTime)> + '_ {
        self.site_probes.iter().map(|(id, p)| (*id, p.since))
    }

    /// Records one site's search outcome (protocol step 4 completion).
    pub(crate) fn record_site_result(
        &mut self,
        query_id: QueryId,
        site: SiteId,
        slots: Vec<Candidate>,
    ) {
        // Only one reply per site per attempt counts. A late one (the
        // query finished, moved on, or was retired) or a second one
        // (re-anycast: a retried walk can be answered by both the old
        // root's in-flight search and the promoted replica root) is given
        // back, so it neither leaks slots nor double-counts in recall.
        let Some(rec) = self.queries.get_mut(&query_id) else {
            self.give_back(query_id, &slots);
            return;
        };
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
        let idle =
            |rec: &QueryRecord| rec.completed_at.is_none() && rec.pending.searches.is_empty();
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
        // The own site's probe step, if still open, ends with the query.
        self.site_probes.remove(&query_id);
        let Some(rec) = self.queries.get_mut(&query_id) else {
            return;
        };
        let k = rec.query.k as usize;
        rec.satisfied = result.len() >= k;
        rec.result = result;
        rec.completed_at = Some(now);
        rec.pending = QueryPending::default();
        // A record outlives its query by `query_timeout`; only attempts
        // read these, so it keeps its answer and lets them go.
        rec.anchor_trees = Vec::new();
        rec.password = None;
        let satisfied = rec.satisfied;
        let node = self.addr;
        let seq = query_id.seq();
        self.obs.record_with(|| simnet::ObsEvent::QueryDone {
            at: now,
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
                fd.complete(query_id, result, satisfied, attrs, now);
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
    use crate::types::Hold;
    use aascript::SharedSandbox;
    use pastry::NodeId;
    use rbay_query::parse_query;
    use scribe::{AggValue, ScribeHost, TopicId};
    use simnet::{NodeAddr, SimTime};

    fn host_with_sites(n: u16) -> RbayHost {
        host_at(NodeAddr(0), SiteId(0), n)
    }

    /// A host at `addr` in `site` of a federation of `n` sites, whose
    /// border routers are at addresses 0, 10, 20, ….
    fn host_at(addr: NodeAddr, site: SiteId, n: u16) -> RbayHost {
        RbayHost::new(
            Rc::new(RbayConfig::default()),
            NodeId(1),
            addr,
            site,
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
        for o in ops {
            if let Op::Direct { to, payload } = o {
                if to == holder.addr {
                    holder.on_direct(NodeAddr(0), payload);
                }
            }
        }
    }

    /// Answers every size probe in `ops` the way the tree roots would:
    /// `size(tree_idx)` is the tree's size, `None` if it does not exist.
    fn answer_probes(h: &mut RbayHost, ops: Vec<Op>, size: impl Fn(u8) -> Option<u64>) {
        for o in ops {
            if let Op::Probe { topic, payload, .. } = o {
                let RbayPayload::SizeProbe { tree_idx, .. } = payload else {
                    panic!("a query probes with SizeProbe: {payload:?}");
                };
                let agg = size(tree_idx).map(AggValue::Count);
                let exists = agg.is_some();
                h.on_probe_reply(topic, payload, agg, exists);
            }
        }
    }

    fn count(ops: &[Op], pred: impl Fn(&Op) -> bool) -> usize {
        ops.iter().filter(|o| pred(o)).count()
    }

    fn is_probe(o: &Op) -> bool {
        matches!(o, Op::Probe { .. })
    }

    fn is_anycast(o: &Op) -> bool {
        matches!(o, Op::Anycast { .. })
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
            h.resolve_sites(&FromClause::AllSites).0,
            vec![SiteId(0), SiteId(1), SiteId(2)]
        );
        assert_eq!(
            h.resolve_sites(&FromClause::Sites(vec!["SITE2".into(), "nope".into()]))
                .0,
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
        let (resolved, unknown) = h.resolve_sites(&from);
        assert_eq!(resolved, vec![SiteId(2), SiteId(0)], "first-seen order");
        assert_eq!(unknown, vec!["nope".to_string(), "gone".to_string()]);
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
            h.record_probe(id, 0, Some(10), true);
            drain_ops(&mut h);
            h.record_site_result(id, SiteId(0), order);
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
    fn issue_query_probes_its_own_site_and_hands_remote_sites_their_search() {
        let mut h = host_with_sites(2);
        let q = parse_query("SELECT 1 FROM * WHERE GPU = true").unwrap();
        h.issue_query(q, None);
        let ops = drain_ops(&mut h);
        // Own site: the probe leaves from here; remote site: one SiteSearch
        // to its border router; plus the timeout timer.
        assert_eq!(count(&ops, is_probe), 1);
        assert!(ops.iter().any(|o| matches!(
            o,
            Op::Direct {
                to: NodeAddr(10),
                payload: RbayPayload::SiteSearch { .. }
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
        h.record_probe(id, 0, Some(100), true);
        h.record_probe(id, 1, Some(5), true);
        let ops = drain_ops(&mut h);
        assert_eq!(count(&ops, is_anycast), 1);
        let Op::Anycast { topic, .. } = ops.iter().find(|o| is_anycast(o)).unwrap() else {
            unreachable!()
        };
        assert_eq!(*topic, h.tree_topic("b=2", SiteId(0)));
        assert_eq!(h.site_probes().count(), 0, "answered: the entry is gone");
    }

    #[test]
    fn missing_trees_complete_queries_unsatisfied() {
        let mut h = host_with_sites(1);
        let q = parse_query("SELECT 1 FROM * WHERE nope = 1").unwrap();
        let id = h.issue_query(q, None);
        drain_ops(&mut h);
        h.record_probe(id, 0, None, false);
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
        h.record_probe(id, 0, Some(10), true);
        drain_ops(&mut h);
        let mk = |addr: u32, key: f64| cand(addr, Some(key));
        h.record_site_result(id, SiteId(0), vec![mk(1, 5.0), mk(2, 9.0), mk(3, 7.0)]);
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
        h.record_probe(id, 0, Some(10), true);
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
            h.record_probe(id, 0, Some(2), true);
            drain_ops(&mut h);
            h.record_site_result(id, SiteId(0), vec![cand(9, None)]);
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
        h.record_probe(id, 0, Some(3), true);
        drain_ops(&mut h);
        h.record_site_result(id, SiteId(0), vec![cand(1, Some(5.0)), cand(2, Some(1.0))]);
        h.record_site_result(id, SiteId(1), vec![cand(11, Some(3.0))]);
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
        h.record_probe(id, 0, Some(3), true);
        drain_ops(&mut h);
        // One slot arrives, but k=2 and the other site is silent — e.g.
        // its rendezvous root died mid-repair. The timeout must release
        // the partial and re-issue along the healed route, not complete
        // unsatisfied on the first attempt.
        h.record_site_result(id, SiteId(0), vec![cand(3, None)]);
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
        assert!(ops.iter().any(is_probe), "retry re-probes");
    }

    #[test]
    fn duplicate_site_result_is_released_not_double_counted() {
        let mut h = host_with_sites(2);
        let q = parse_query("SELECT 2 FROM * WHERE a = 1").unwrap();
        let id = h.issue_query(q, None);
        drain_ops(&mut h);
        h.record_probe(id, 0, Some(3), true);
        drain_ops(&mut h);
        // Holder 1, as the walk left it: reserved for the query.
        let mut holder = host_at(NodeAddr(1), SiteId(0), 2);
        holder.hold = Some(Hold::Reserved {
            by: id,
            until: SimTime::from_millis(2_000),
        });
        h.record_site_result(id, SiteId(0), vec![cand(1, None)]);
        assert_eq!(h.queries[&id].pending.found.len(), 1);
        deliver(drain_ops(&mut h), &mut holder);
        // The same site answers again — the old root's in-flight reply
        // plus the promoted replica's. The echo must not double-count, and
        // must not free holder 1: the query still counts it, and a node
        // holds one reservation per query.
        h.record_site_result(id, SiteId(0), vec![cand(1, None), cand(2, None)]);
        let rec = &h.queries[&id];
        assert!(rec.completed_at.is_none());
        assert_eq!(rec.pending.found.len(), 1, "echo not double-counted");
        let ops = drain_ops(&mut h);
        assert_eq!(settled(&ops).1, vec![2], "only the stranger is freed");
        deliver(ops, &mut holder);
        // The other site completes the attempt; the commit finds holder
        // 1's reservation still in place.
        h.record_site_result(id, SiteId(1), vec![cand(11, None)]);
        let rec = &h.queries[&id];
        assert!(rec.satisfied);
        let ops = drain_ops(&mut h);
        assert_eq!(settled(&ops), (vec![1, 11], vec![]));
        deliver(ops, &mut holder);
        assert_eq!(holder.hold, Some(Hold::Committed { by: id }));
    }

    #[test]
    fn late_results_release_reservations() {
        let mut h = host_with_sites(1);
        let q = parse_query("SELECT 1 FROM * WHERE a = 1").unwrap();
        let id = h.issue_query(q, None);
        drain_ops(&mut h);
        h.record_probe(id, 0, Some(3), true);
        drain_ops(&mut h);
        h.record_site_result(id, SiteId(0), vec![cand(1, None)]);
        assert!(h.queries[&id].completed_at.is_some());
        assert_eq!(settled(&drain_ops(&mut h)), (vec![1], vec![]));
        // A duplicate/late echo now arrives, naming the committed holder
        // and a stranger: the stranger is freed, the committed one is not.
        h.record_site_result(id, SiteId(0), vec![cand(1, None), cand(2, None)]);
        assert_eq!(settled(&drain_ops(&mut h)), (vec![], vec![2]));
    }

    /// The querier is its own site's entry node: what it queues for its
    /// own site is, op for op, what a border router queues when the same
    /// query is handed to it by message — the probes, then the walk.
    #[test]
    fn own_site_steps_queue_what_the_gateway_arms_queue() {
        let dbg = |ops: &[Op]| ops.iter().map(|o| format!("{o:?}")).collect::<Vec<_>>();
        let mut h = host_with_sites(1);
        let q = parse_query("SELECT 1 FROM * WHERE a = 1 AND b = 2").unwrap();
        let id = h.issue_query(q, None);
        let probes = drain_ops(&mut h);
        assert!(matches!(probes[0], Op::Timer { .. }));
        h.record_probe(id, 0, Some(100), true);
        h.record_probe(id, 1, Some(5), true);
        let search = drain_ops(&mut h);
        assert_eq!(search.len(), 1);

        let mut gw = host_at(NodeAddr(10), SiteId(0), 1);
        let rec = &h.queries[&id];
        gw.on_direct(
            h.addr,
            RbayPayload::SiteSearch {
                state: Box::new(SearchState {
                    query_id: id,
                    reply_to: h.addr,
                    query: Rc::clone(&rec.query),
                    password: None,
                    slots: ThinVec::new(),
                }),
                trees: rec.anchor_trees.clone(),
            },
        );
        assert_eq!(dbg(&probes[1..]), dbg(&drain_ops(&mut gw)));
        gw.record_probe(id, 0, Some(100), true);
        gw.record_probe(id, 1, Some(5), true);
        assert_eq!(dbg(&search), dbg(&drain_ops(&mut gw)));
    }

    /// A remote site costs the querier one message out — the `SiteSearch`
    /// to the border router, which probes and walks there — and one
    /// `SearchEcho` back; the router's probe answers never leave its site.
    #[test]
    fn a_remote_site_costs_one_message_out_and_one_echo_back() {
        let mut h = host_with_sites(2);
        let mut gw = host_at(NodeAddr(10), SiteId(1), 2);
        let q = parse_query(r#"SELECT 1 FROM "site1" WHERE a = 1 AND b = 2"#).unwrap();
        let id = h.issue_query(q, None);
        let out = drain_ops(&mut h);
        let directs = |ops: &[Op]| count(ops, |o| matches!(o, Op::Direct { .. }));
        assert_eq!(directs(&out), 1, "{out:?}");
        assert_eq!(
            count(&out, is_probe),
            0,
            "the querier probes nothing remote"
        );
        deliver(out, &mut gw);
        let probes = drain_ops(&mut gw);
        assert_eq!(count(&probes, is_probe), 2);
        let Some(Op::Probe { topic, .. }) = probes.first() else {
            panic!("{probes:?}")
        };
        assert_eq!(
            *topic,
            gw.tree_topic("a=1", SiteId(1)),
            "its own site's trees"
        );
        answer_probes(&mut gw, probes, |i| Some(if i == 0 { 100 } else { 5 }));
        assert_eq!(gw.site_probes().count(), 0, "answered: the entry is gone");
        let walk = drain_ops(&mut gw);
        assert_eq!(directs(&walk), 0, "no probe answer crosses back");
        let Some(Op::Anycast {
            topic,
            payload: RbayPayload::Search(mut state),
            ..
        }) = walk.into_iter().find(is_anycast)
        else {
            panic!("the walk starts at the router");
        };
        assert_eq!(topic, gw.tree_topic("b=2", SiteId(1)), "the smaller tree");
        state.slots.push(Candidate {
            site: SiteId(1),
            ..cand(12, None)
        });
        gw.on_anycast_result(topic, RbayPayload::Search(state), true);
        let back = drain_ops(&mut gw);
        assert!(
            matches!(
                back.as_slice(),
                [Op::Direct {
                    to: NodeAddr(0),
                    payload: RbayPayload::SearchEcho { .. }
                }]
            ),
            "{back:?}"
        );
        deliver(back, &mut h);
        assert!(h.queries[&id].satisfied);
    }

    /// A site where no anchor tree exists answers the querier at once
    /// with an empty, unsatisfied `SearchEcho`.
    #[test]
    fn a_site_without_the_tree_answers_an_empty_echo() {
        let mut h = host_with_sites(2);
        let mut gw = host_at(NodeAddr(10), SiteId(1), 2);
        let q = parse_query(r#"SELECT 1 FROM "site1" WHERE a = 1"#).unwrap();
        let id = h.issue_query(q, None);
        deliver(drain_ops(&mut h), &mut gw);
        let probes = drain_ops(&mut gw);
        answer_probes(&mut gw, probes, |_| None);
        assert_eq!(gw.site_probes().count(), 0);
        let back = drain_ops(&mut gw);
        let [Op::Direct {
            to: NodeAddr(0),
            payload:
                RbayPayload::SearchEcho {
                    query_id,
                    site: SiteId(1),
                    slots,
                    satisfied: false,
                },
        }] = back.as_slice()
        else {
            panic!("{back:?}")
        };
        assert_eq!((*query_id, slots.len()), (id, 0));
        deliver(back, &mut h);
        let rec = &h.queries[&id];
        assert_eq!(rec.attempts, 1, "answered empty: the attempt ended");
    }

    /// The querier's own-site entry ends with its query: an answer that
    /// arrives after the query completed launches nothing.
    #[test]
    fn an_answer_after_the_querier_completed_launches_nothing() {
        let mut h = host_with_sites(1);
        let q = parse_query("SELECT 1 FROM * WHERE a = 1").unwrap();
        let id = h.issue_query(q, None);
        for _ in 0..MAX_ATTEMPTS {
            assert_eq!(h.site_probes().count(), 1, "each attempt enters again");
            let att = h.queries[&id].attempts;
            h.on_query_timer(id.seq(), att, TIMER_KIND_TIMEOUT);
        }
        assert!(h.queries[&id].completed_at.is_some());
        assert_eq!(h.site_probes().count(), 0, "completed: the entry is gone");
        drain_ops(&mut h);
        h.record_probe(id, 0, Some(3), true);
        assert!(h.ops.is_empty(), "{:?}", h.ops);
    }

    /// Entries older than the query timeout go when the next one comes:
    /// no timer, and nothing outlives its query by more than that.
    #[test]
    fn stale_entries_are_dropped_when_one_is_added() {
        let mut gw = host_at(NodeAddr(10), SiteId(1), 2);
        let q = Rc::new(parse_query("SELECT 1 FROM * WHERE a = 1").unwrap());
        let enter = |gw: &mut RbayHost, seq: u32| {
            let state = Box::new(SearchState {
                query_id: QueryId::new(NodeAddr(0), seq),
                reply_to: NodeAddr(0),
                query: Rc::clone(&q),
                password: None,
                slots: ThinVec::new(),
            });
            let trees = vec!["a=1".to_owned()];
            gw.on_direct(NodeAddr(0), RbayPayload::SiteSearch { state, trees });
        };
        enter(&mut gw, 1);
        gw.now = SimTime::ZERO + gw.cfg.query_timeout;
        enter(&mut gw, 2);
        assert_eq!(gw.site_probes().count(), 2, "at the timeout: kept");
        gw.now += SimDuration::from_millis(1);
        enter(&mut gw, 3);
        let left: Vec<u32> = gw.site_probes().map(|(id, _)| id.seq()).collect();
        assert_eq!(left, vec![2, 3]);
    }

    /// A query the host completes at once: its one site answers `slots`.
    fn issue_answered(h: &mut RbayHost, slots: Vec<Candidate>) -> QueryId {
        let id = h.issue_query(parse_query("SELECT 1 FROM * WHERE a = 1").unwrap(), None);
        h.record_probe(id, 0, Some(3), true);
        h.record_site_result(id, SiteId(0), slots);
        drain_ops(h);
        id
    }

    fn kept(h: &RbayHost) -> Vec<QueryId> {
        h.queries.keys().copied().collect()
    }

    /// A completed record stays until the origin's first issue more than
    /// the query timeout after completion.
    #[test]
    fn a_completed_record_leaves_at_the_first_issue_past_the_timeout() {
        let mut h = host_with_sites(1);
        let first = issue_answered(&mut h, vec![cand(1, None)]);
        assert!(h.queries[&first].completed_at.is_some());
        h.now = SimTime::ZERO + h.cfg.query_timeout;
        let second = issue_answered(&mut h, vec![cand(2, None)]);
        assert_eq!(kept(&h), vec![first, second], "at the timeout: kept");
        h.now += SimDuration::from_millis(1);
        let third = issue_answered(&mut h, vec![cand(3, None)]);
        assert_eq!(kept(&h), vec![second, third]);
        assert!(h.retired(first) && !h.retired(second) && !h.retired(third));
        assert!(!h.retired(QueryId::new(NodeAddr(5), 0)), "not its query");
    }

    /// The oldest record still open stops the pops, however old the
    /// completed ones behind it are.
    #[test]
    fn a_record_in_backoff_stops_the_pops() {
        let mut h = host_with_sites(1);
        let open = h.issue_query(parse_query("SELECT 1 FROM * WHERE nope = 1").unwrap(), None);
        h.record_probe(open, 0, None, false);
        assert!(h.queries[&open].completed_at.is_none(), "in backoff");
        let done = issue_answered(&mut h, vec![cand(1, None)]);
        h.now = SimTime::ZERO + h.cfg.query_timeout.saturating_mul(3);
        let last = issue_answered(&mut h, vec![cand(2, None)]);
        assert_eq!(kept(&h), vec![open, done, last]);
        assert!(!h.retired(done));
    }

    /// A late `SearchEcho` for a retired query releases every slot in
    /// both commit modes: the held set went with the record, and a node
    /// the query committed ignores the `Release`.
    #[test]
    fn a_late_echo_for_a_retired_query_releases_every_slot() {
        for commit_results in [false, true] {
            let mut h = RbayHost::new(
                Rc::new(RbayConfig {
                    commit_results,
                    ..RbayConfig::default()
                }),
                NodeId(1),
                NodeAddr(0),
                SiteId(0),
                SharedSandbox::new(),
                vec![vec![NodeAddr(0)]].into(),
                vec!["site0".into()].into(),
            );
            let old = issue_answered(&mut h, vec![cand(1, None)]);
            h.now = SimTime::ZERO + h.cfg.query_timeout + SimDuration::from_millis(1);
            issue_answered(&mut h, vec![cand(2, None)]);
            assert!(h.retired(old));
            let echo = RbayPayload::SearchEcho {
                query_id: old,
                site: SiteId(0),
                slots: vec![cand(1, None), cand(3, None)],
                satisfied: true,
            };
            h.on_direct(NodeAddr(10), echo);
            let released = settled(&drain_ops(&mut h)).1;
            assert_eq!(released, vec![1, 3], "commit_results: {commit_results}");
        }
    }

    /// A repeated anchor names one tree, and one tree is probed once.
    #[test]
    fn a_repeated_anchor_is_probed_once() {
        let mut h = host_with_sites(1);
        let q = parse_query("SELECT 1 FROM * WHERE a = 1 AND a = 1").unwrap();
        let id = h.issue_query(q, None);
        assert_eq!(h.queries[&id].anchor_trees, vec!["a=1".to_owned()]);
        let ops = drain_ops(&mut h);
        assert_eq!(count(&ops, is_probe), 1);
        answer_probes(&mut h, ops, |_| Some(4));
        assert_eq!(count(&drain_ops(&mut h), is_anycast), 1);
    }

    /// A finished record keeps its answer and its query, not what only
    /// its attempts read.
    #[test]
    fn a_completed_record_keeps_no_password_and_no_anchor_trees() {
        let mut h = host_with_sites(1);
        let q = parse_query("SELECT 1 FROM * WHERE a = 1").unwrap();
        let id = h.issue_query(q, Some("pw".to_owned()));
        let rec = &h.queries[&id];
        assert_eq!(rec.password.as_deref(), Some("pw"));
        assert_eq!(rec.anchor_trees, vec!["a=1".to_owned()]);
        h.record_probe(id, 0, Some(3), true);
        h.record_site_result(id, SiteId(0), vec![cand(1, None)]);
        let rec = &h.queries[&id];
        assert!(rec.completed_at.is_some() && rec.satisfied);
        assert_eq!(rec.result, vec![cand(1, None)]);
        assert_eq!(rec.password, None);
        assert!(rec.anchor_trees.is_empty());
        assert_eq!(rec.query.k, 1);
    }

    /// More anchors than a probe's `u8` index can tell apart: the first
    /// 256 trees are probed, and the search starts once they answer.
    #[test]
    fn a_query_with_300_anchors_starts_its_search_once_answered() {
        let mut h = host_with_sites(1);
        let predicates = (0..300)
            .map(|i| rbay_query::Predicate {
                attr: format!("a{i}"),
                op: rbay_query::CmpOp::Eq,
                value: AttrValue::Num(1.0),
            })
            .collect();
        let q = Query {
            k: 1,
            from: FromClause::AllSites,
            predicates,
            order_by: None,
        };
        let id = h.issue_query(q, None);
        let ops = drain_ops(&mut h);
        assert_eq!(count(&ops, is_probe), 256);
        answer_probes(&mut h, ops, |i| Some(1_000 - u64::from(i)));
        let ops = drain_ops(&mut h);
        assert_eq!(count(&ops, is_anycast), 1, "the search starts");
        let Some(Op::Anycast { topic, .. }) = ops.iter().find(|o| is_anycast(o)) else {
            unreachable!()
        };
        assert_eq!(*topic, TopicId::scoped("a255=1", "rbay", SiteId(0)));
        assert_eq!(h.queries[&id].attempts, 0);
    }
}
