//! The node-side of the query protocol's steps 4 and 5: a search entering
//! the site here, a search walk visiting this node, and the node's one
//! [`Hold`]: the reservation a walk takes, its commit, and its release.

use super::{Op, RbayHost};
use crate::types::{Candidate, Hold, QueryId, RbayPayload, SearchState};
use rbay_store::WalRecord;
use scribe::Visit;
use simnet::SimDuration;

/// How long a reservation holds before expiring un-committed (the paper's
/// "short time window").
const RESERVE_TTL: SimDuration = SimDuration::from_millis(2_000);

impl RbayHost {
    /// Whether this node is held for a different query: committed to it,
    /// or reserved by it until a time still to come.
    fn is_reserved_against(&self, query: QueryId) -> bool {
        match self.hold {
            Some(Hold::Reserved { by, until }) => by != query && until > self.now,
            Some(Hold::Committed { by }) => by != query,
            None => false,
        }
    }

    /// Frees whatever holds this node: the client's explicit release, the
    /// only end of a commit. A commit's release is journaled first so a
    /// restart does not re-hold it. Operator control path; the query
    /// protocol frees a reservation via
    /// [`RbayPayload::Release`](crate::RbayPayload::Release).
    pub fn release_reservation(&mut self) {
        if let Some(Hold::Committed { by }) = self.hold {
            self.persist(WalRecord::Release { query: by.0 });
        }
        self.hold = None;
    }

    /// A search enters this site here (protocol step 3): the anycast walk
    /// starts — or, while this node is reserved by another query it issued
    /// itself, waits for that reservation to be handed back. The walk
    /// would visit this node first; walking past it sends every waiting
    /// search up the tree in the same depth-first order, so n searches
    /// started together (a failover's re-routed probes all answered in one
    /// instant) take n²/2 steps between them. Parked, each starts one
    /// `Release` later and finds this node free.
    pub(crate) fn search_here(&mut self, state: SearchState, tree: String) {
        let own_hold = matches!(self.hold, Some(Hold::Reserved { by, until })
            if by != state.query_id && by.origin() == self.addr && until > self.now);
        if own_hold && state.query.matches_all(|attr| self.attrs.get(attr)) {
            self.parked_searches.push_back((state, tree));
            return;
        }
        self.ops.push_back(Op::Anycast {
            topic: self.tree_topic(&tree, self.site),
            scope: self.routing_scope(self.site),
            payload: RbayPayload::Search(state),
        });
    }

    /// One step of the search walk visiting this node (protocol step 4):
    /// check the full predicate, check the reservation, consult `onGet`,
    /// then reserve and fill a slot.
    pub(super) fn visit_search(&mut self, state: &mut SearchState) -> Visit {
        let k = state.query.k as usize;
        if state.slots.len() >= k {
            return Visit::Stop;
        }
        let matches = state.query.matches_all(|attr| self.attrs.get(attr));
        if !matches {
            return Visit::Continue;
        }
        if self.is_reserved_against(state.query_id) {
            return Visit::Continue;
        }
        let anchor = state.query.anchors().next().map(|p| p.attr.clone());
        let caller = format!("{}", state.reply_to);
        if !self.check_on_get(anchor.as_deref(), &caller, state.password.as_deref()) {
            return Visit::Continue;
        }
        // A late duplicate walk of the query this node is committed to
        // finds it still committed; any other walk that gets here reserves
        // it afresh.
        if self.hold != Some(Hold::Committed { by: state.query_id }) {
            self.hold = Some(Hold::Reserved {
                by: state.query_id,
                until: self.now + RESERVE_TTL,
            });
        }
        let sort_key = state
            .query
            .order_by
            .as_ref()
            .and_then(|(attr, _)| self.attrs.get(attr).cloned());
        state.slots.push(Candidate {
            id: self.id,
            addr: self.addr,
            site: self.site,
            sort_key,
        });
        if state.slots.len() >= k {
            Visit::Stop
        } else {
            Visit::Continue
        }
    }

    /// Protocol step 5, taken: `query_id` commits the reservation it holds
    /// here, journaled before it holds. A commit from any other query, or a
    /// repeated one, is ignored.
    pub(super) fn on_commit(&mut self, query_id: QueryId) {
        if !matches!(self.hold, Some(Hold::Reserved { by, .. }) if by == query_id) {
            return;
        }
        self.persist(WalRecord::Commit { query: query_id.0 });
        self.hold = Some(Hold::Committed { by: query_id });
        self.commits += 1;
        // Taken for good: the parked searches walk past it.
        for (state, tree) in std::mem::take(&mut self.parked_searches) {
            self.search_here(state, tree);
        }
    }

    /// Protocol step 5, not taken: `query_id` frees the reservation it
    /// holds here, and the first parked search starts. A release from any
    /// other query is ignored, and so is one naming a commit: only the
    /// client's [`RbayHost::release_reservation`] ends that.
    pub(super) fn on_release(&mut self, query_id: QueryId) {
        if matches!(self.hold, Some(Hold::Reserved { by, .. }) if by == query_id) {
            self.hold = None;
            if let Some((state, tree)) = self.parked_searches.pop_front() {
                self.search_here(state, tree);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::testkit::host;
    use crate::types::RbayPayload;
    use pastry::NodeId;
    use rbay_query::{parse_query, AttrValue};
    use scribe::ScribeHost;
    use simnet::{NodeAddr, SimTime, ThinVec};
    use std::rc::Rc;

    fn search(k: u32, password: Option<&str>) -> SearchState {
        let q = parse_query(&format!(
            "SELECT {k} FROM * WHERE GPU = true AND CPU_utilization < 50 GROUPBY CPU_utilization ASC"
        ))
        .unwrap();
        SearchState {
            query_id: QueryId(99),
            reply_to: NodeAddr(1),
            query: Rc::new(q),
            password: password.map(str::to_owned),
            slots: ThinVec::new(),
        }
    }

    #[test]
    fn visit_fills_slot_when_predicates_hold() {
        let mut h = host();
        h.update_attr("GPU", AttrValue::Bool(true));
        h.update_attr("CPU_utilization", AttrValue::Num(10.0));
        let mut s = search(2, None);
        assert_eq!(h.visit_search(&mut s), Visit::Continue, "k=2 needs more");
        assert_eq!(s.slots.len(), 1);
        assert_eq!(s.slots[0].id, NodeId(42));
        assert_eq!(
            s.slots[0].sort_key,
            Some(AttrValue::Num(10.0)),
            "GROUPBY key captured"
        );
        assert!(h.hold.is_some());
    }

    #[test]
    fn visit_stops_when_buffer_full() {
        let mut h = host();
        h.update_attr("GPU", AttrValue::Bool(true));
        h.update_attr("CPU_utilization", AttrValue::Num(10.0));
        let mut s = search(1, None);
        assert_eq!(h.visit_search(&mut s), Visit::Stop);
    }

    #[test]
    fn visit_skips_on_failed_predicate() {
        let mut h = host();
        h.update_attr("GPU", AttrValue::Bool(true));
        h.update_attr("CPU_utilization", AttrValue::Num(90.0));
        let mut s = search(1, None);
        assert_eq!(h.visit_search(&mut s), Visit::Continue);
        assert!(s.slots.is_empty());
        assert!(h.hold.is_none());
    }

    #[test]
    fn visit_respects_foreign_reservation_until_expiry() {
        let mut h = host();
        h.update_attr("GPU", AttrValue::Bool(true));
        h.update_attr("CPU_utilization", AttrValue::Num(10.0));
        h.hold = Some(Hold::Reserved {
            by: QueryId(1),
            until: SimTime::from_millis(500),
        });
        h.now = SimTime::from_millis(100);
        let mut s = search(1, None);
        assert_eq!(h.visit_search(&mut s), Visit::Continue, "still locked");
        h.now = SimTime::from_millis(600);
        assert_eq!(h.visit_search(&mut s), Visit::Stop, "lock expired");
    }

    #[test]
    fn password_aa_gates_access() {
        let mut h = host();
        h.update_attr("GPU", AttrValue::Bool(true));
        h.update_attr("CPU_utilization", AttrValue::Num(10.0));
        h.install_node_aa(
            r#"
            AA = {Password = "sesame"}
            function onGet(caller, password)
                if password == AA.Password then
                    return true
                end
                return nil
            end
        "#,
        )
        .unwrap();
        let mut wrong = search(1, Some("guess"));
        assert_eq!(h.visit_search(&mut wrong), Visit::Continue);
        assert_eq!(h.aa_denials, 1);
        let mut right = search(1, Some("sesame"));
        assert_eq!(h.visit_search(&mut right), Visit::Stop);
    }

    /// Only the client ends a commit: the wrong query's `Commit` takes
    /// nothing, a repeated one counts once, a late duplicate walk of the
    /// committing query finds the node still committed, and a protocol
    /// `Release` leaves it so. The ctrl release frees it.
    #[test]
    fn commit_and_release_lifecycle() {
        let mut h = host();
        let q = QueryId(5);
        let send = |h: &mut RbayHost, payload| h.on_direct(NodeAddr(0), payload);
        h.hold = Some(Hold::Reserved {
            by: q,
            until: SimTime::from_millis(100),
        });
        send(
            &mut h,
            RbayPayload::Commit {
                query_id: QueryId(6),
            },
        );
        assert_eq!(h.commits, 0);
        send(&mut h, RbayPayload::Commit { query_id: q });
        send(&mut h, RbayPayload::Commit { query_id: q });
        assert_eq!((h.hold, h.commits), (Some(Hold::Committed { by: q }), 1));
        h.update_attr("GPU", AttrValue::Bool(true));
        h.update_attr("CPU_utilization", AttrValue::Num(10.0));
        let mut late = search(1, None);
        late.query_id = q;
        assert_eq!(h.visit_search(&mut late), Visit::Stop);
        send(&mut h, RbayPayload::Release { query_id: q });
        assert_eq!(h.hold, Some(Hold::Committed { by: q }));
        h.release_reservation();
        assert_eq!((h.hold, h.commits), (None, 1));
    }

    /// A commit has no horizon: an hour after it, a walk of another query
    /// still walks past the node.
    #[test]
    fn a_commit_has_no_horizon() {
        let mut h = host();
        h.update_attr("GPU", AttrValue::Bool(true));
        h.update_attr("CPU_utilization", AttrValue::Num(10.0));
        let mut own = search(1, None);
        own.query_id = QueryId(5);
        assert_eq!(h.visit_search(&mut own), Visit::Stop);
        h.on_commit(QueryId(5));
        h.now = SimTime::from_secs(3_601);
        let mut other = search(1, None);
        assert_eq!(h.visit_search(&mut other), Visit::Continue);
        assert!(other.slots.is_empty());
        assert_eq!(h.hold, Some(Hold::Committed { by: QueryId(5) }));
    }

    /// A search that would start on a node held by another query of that
    /// node waits for the hold to be handed back: one starts per
    /// `Release`, all of them on a `Commit` (they walk past, as before). A
    /// hold by another node's query parks nothing.
    #[test]
    fn searches_wait_for_the_nodes_own_hold_to_be_handed_back() {
        let mut h = host();
        h.update_attr("GPU", AttrValue::Bool(true));
        h.update_attr("CPU_utilization", AttrValue::Num(10.0));
        h.ops.clear();
        let (own, next) = (QueryId::new(h.addr, 1), QueryId::new(h.addr, 2));
        let hold = |by| {
            Some(Hold::Reserved {
                by,
                until: SimTime::from_millis(2_000),
            })
        };
        let walks = |h: &mut RbayHost| {
            let n = h
                .ops
                .iter()
                .filter(|o| matches!(o, Op::Anycast { .. }))
                .count();
            h.ops.clear();
            n
        };
        h.hold = hold(own);
        for _ in 0..3 {
            h.search_here(search(1, None), "GPU=true".into());
        }
        assert_eq!((walks(&mut h), h.parked_searches.len()), (0, 3));
        h.on_release(QueryId(5));
        assert_eq!(
            walks(&mut h),
            0,
            "another query's release hands back nothing"
        );
        h.on_release(own);
        assert_eq!((walks(&mut h), h.parked_searches.len()), (1, 2));
        h.hold = hold(next);
        h.on_commit(next);
        assert_eq!((walks(&mut h), h.parked_searches.len()), (2, 0));
        h.hold = hold(QueryId::new(NodeAddr(3), 1));
        h.search_here(search(1, None), "GPU=true".into());
        assert_eq!((walks(&mut h), h.parked_searches.len()), (1, 0));
    }
}
