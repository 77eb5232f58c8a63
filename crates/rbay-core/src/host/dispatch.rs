//! What a host does with the messages the tree layer hands it: the
//! [`ScribeHost`] callbacks. Each arm either records an answer for the
//! query engine, defers an [`Op`] for the actor, or hands the message to
//! the module that owns its subject.

use super::{Op, RbayHost};
use crate::types::{RbayEvent, RbayPayload};
use rbay_store::WalRecord;
use scribe::{AggValue, ScribeHost, ScribeMsg, TopicId, Visit};
use simnet::NodeAddr;

impl RbayHost {
    /// Hands `payload` to `node`: in place when that is this node, as a
    /// queued message otherwise. The one "is it me?" of the query path: a
    /// querier is its own site's gateway, so every step runs the same
    /// [`ScribeHost::on_direct`] arm on whichever node serves the site.
    pub(crate) fn hand_to(&mut self, node: NodeAddr, payload: RbayPayload) {
        if node == self.addr {
            self.on_direct(node, payload);
        } else {
            self.ops.push_back(Op::Direct { to: node, payload });
        }
    }
}

impl ScribeHost<RbayPayload> for RbayHost {
    fn on_multicast(&mut self, _topic: TopicId, payload: &RbayPayload) {
        if let RbayPayload::Invalidate { attr, .. } = payload {
            self.invalidate_frontdoor(attr);
            return;
        }
        let RbayPayload::Admin(cmd) = payload else {
            return;
        };
        self.events.push(RbayEvent::AdminDelivered {
            cmd_id: cmd.cmd_id,
            issued_at: cmd.issued_at,
            delivered_at: self.now,
        });
        if let Some(v) = self.on_deliver(&cmd.attr, &cmd.payload) {
            self.persist(WalRecord::AttrPut {
                attr: cmd.attr.clone(),
                value: v.clone(),
            });
            self.attrs.insert(cmd.attr.clone(), v);
        }
    }

    fn on_anycast_visit(&mut self, _topic: TopicId, payload: &mut RbayPayload) -> Visit {
        match payload {
            RbayPayload::Search(state) => self.visit_search(state),
            _ => Visit::Continue,
        }
    }

    fn on_anycast_result(&mut self, _topic: TopicId, payload: RbayPayload, satisfied: bool) {
        let RbayPayload::Search(state) = payload else {
            return;
        };
        // Gateway or querier alike: the result goes to whoever asked.
        self.hand_to(
            state.reply_to,
            RbayPayload::SearchEcho {
                query_id: state.query_id,
                site: self.site,
                slots: state.slots.into_vec(),
                satisfied,
            },
        );
    }

    fn on_probe_reply(
        &mut self,
        _topic: TopicId,
        payload: RbayPayload,
        agg: Option<AggValue>,
        exists: bool,
    ) {
        if let RbayPayload::StatsProbe { reply_to, tree } = payload {
            let agg = agg.map(Box::new);
            self.hand_to(reply_to, RbayPayload::StatsEcho { tree, agg, exists });
            return;
        }
        // The prober is the site's entry node: the answer is recorded here.
        if let RbayPayload::SizeProbe { query_id, tree_idx } = payload {
            self.record_probe(query_id, tree_idx, agg.and_then(|a| a.as_count()), exists);
        }
    }

    fn on_direct(&mut self, from: NodeAddr, payload: RbayPayload) {
        match payload {
            RbayPayload::SiteSearch { state, trees } => self.enter_site(*state, trees),
            RbayPayload::SearchEcho {
                query_id,
                site,
                slots,
                ..
            } => self.record_site_result(query_id, site, slots),
            RbayPayload::Commit { query_id } => self.on_commit(query_id),
            RbayPayload::Release { query_id } => self.on_release(query_id),
            RbayPayload::StatsEcho { tree, agg, exists } => {
                self.tree_stats
                    .insert(tree, (agg.map(|a| *a), exists, self.now));
            }
            RbayPayload::Ping { nonce, info } => self.on_ping(from, nonce, info),
            RbayPayload::Pong { info, .. } => self.on_pong(from, info),
            RbayPayload::Invalidate { attr, fanout } => {
                self.invalidate_frontdoor(&attr);
                if fanout {
                    // Border-router relay: spread the invalidation to the
                    // rest of this site's gateways over the local tree.
                    self.multicast_invalidation(attr);
                }
            }
            _ => {}
        }
    }

    fn on_subscribed(&mut self, topic: TopicId) {
        if let Some(requested_at) = self.sub_requested.remove(&topic) {
            self.events.push(RbayEvent::Subscribed {
                topic,
                requested_at,
                attached_at: self.now,
            });
        }
    }

    fn on_route(&mut self, hop: NodeAddr, msg: &ScribeMsg<RbayPayload>) {
        self.routed_through(hop, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::testkit::host;
    use rbay_query::AttrValue;
    use simnet::SimTime;

    #[test]
    fn admin_multicast_updates_attribute_via_on_deliver() {
        let mut h = host();
        h.update_attr("price", AttrValue::Num(10.0));
        h.install_attr_aa(
            "price",
            r#"
            function onDeliver(caller, value)
                -- admins deliver a multiplier, not an absolute price
                return value * 2
            end
        "#,
        )
        .unwrap();
        h.now = SimTime::from_millis(50);
        h.on_multicast(
            TopicId::new("price", "rbay"),
            &RbayPayload::Admin(Box::new(crate::types::AdminCommand {
                cmd_id: 1,
                attr: "price".into(),
                payload: AttrValue::Num(21.0),
                issued_at: SimTime::from_millis(10),
            })),
        );
        assert_eq!(h.attrs["price"], AttrValue::Num(42.0));
        assert!(matches!(
            h.events.last(),
            Some(RbayEvent::AdminDelivered { cmd_id: 1, .. })
        ));
    }

    #[test]
    fn admin_multicast_without_handler_sets_value_directly() {
        let mut h = host();
        h.on_multicast(
            TopicId::new("expiry", "rbay"),
            &RbayPayload::Admin(Box::new(crate::types::AdminCommand {
                cmd_id: 2,
                attr: "expiry".into(),
                payload: AttrValue::str("22:00"),
                issued_at: SimTime::ZERO,
            })),
        );
        assert_eq!(h.attrs["expiry"], AttrValue::str("22:00"));
    }
}
