//! Property tests for the `Wire` impls on RBAY's own payload types: the
//! full cross-node message (`RbayMsg` = Pastry ⟨Scribe ⟨RbayPayload⟩⟩)
//! survives encode → decode → encode byte-identically, and corrupt bytes
//! never panic the decoder.

use pastry::{NodeId, NodeInfo, PastryMsg};
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use proptest::TestRng;
use rbay_core::{AdminCommand, Candidate, QueryId, RbayEvent, RbayMsg, RbayPayload, SearchState};
use rbay_query::{AttrValue, CmpOp, FromClause, Predicate, Query, SortDir};
use rbay_wire::{assert_tags_covered, decode_frame, encode_frame, Wire};
use scribe::{AggValue, ScribeMsg, TopicId};
use simnet::{NodeAddr, SimTime, SiteId};
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn s_string() -> impl Strategy<Value = String> {
    vec(0usize..6, 0..10).prop_map(|ix| {
        ix.into_iter()
            .map(|i| ['G', 'P', 'u', '=', '%', 'é'][i])
            .collect()
    })
}

fn s_attr_value() -> BoxedStrategy<AttrValue> {
    prop_oneof![
        any::<bool>().prop_map(AttrValue::Bool),
        any::<f64>().prop_map(AttrValue::Num),
        s_string().prop_map(AttrValue::Str),
    ]
    .boxed()
}

fn s_candidate() -> impl Strategy<Value = Candidate> {
    (
        any::<u128>(),
        any::<u32>(),
        any::<u16>(),
        option::of(s_attr_value()),
    )
        .prop_map(|(id, addr, site, sort_key)| Candidate {
            id: NodeId(id),
            addr: NodeAddr(addr),
            site: SiteId(site),
            sort_key,
        })
}

fn s_query() -> impl Strategy<Value = Query> {
    let from = prop_oneof![
        Just(FromClause::AllSites),
        vec(s_string(), 0..3).prop_map(FromClause::Sites),
    ];
    let op = prop_oneof![Just(CmpOp::Eq), Just(CmpOp::Lt), Just(CmpOp::Ge)];
    let pred = (s_string(), op, s_attr_value()).prop_map(|(attr, op, value)| Predicate {
        attr,
        op,
        value,
    });
    let dir = prop_oneof![Just(SortDir::Asc), Just(SortDir::Desc)];
    (
        1u32..16,
        from,
        vec(pred, 0..3),
        option::of((s_string(), dir)),
    )
        .prop_map(|(k, from, predicates, order_by)| Query {
            k,
            from,
            predicates,
            order_by,
        })
}

fn s_search_state() -> impl Strategy<Value = SearchState> {
    (
        any::<u64>(),
        any::<u32>(),
        s_query(),
        option::of(s_string()),
        vec(s_candidate(), 0..4),
    )
        .prop_map(|(qid, reply_to, query, password, slots)| SearchState {
            query_id: QueryId(qid),
            reply_to: NodeAddr(reply_to),
            query: Rc::new(query),
            password,
            slots,
        })
}

fn s_node_info() -> impl Strategy<Value = NodeInfo> {
    (any::<u128>(), any::<u32>(), any::<u16>()).prop_map(|(id, addr, site)| NodeInfo {
        id: NodeId(id),
        addr: NodeAddr(addr),
        site: SiteId(site),
    })
}

fn s_payload() -> BoxedStrategy<RbayPayload> {
    prop_oneof![
        (any::<u64>(), any::<u8>(), any::<u32>(), any::<u16>()).prop_map(
            |(qid, tree_idx, reply_to, site)| RbayPayload::SizeProbe {
                query_id: QueryId(qid),
                tree_idx,
                reply_to: NodeAddr(reply_to),
                site: SiteId(site),
            }
        ),
        s_search_state().prop_map(RbayPayload::Search),
        (
            any::<u64>(),
            any::<u8>(),
            any::<u16>(),
            option::of(any::<u64>()),
            any::<bool>()
        )
            .prop_map(
                |(qid, tree_idx, site, size, exists)| RbayPayload::ProbeEcho {
                    query_id: QueryId(qid),
                    tree_idx,
                    site: SiteId(site),
                    size,
                    exists,
                }
            ),
        (
            any::<u64>(),
            any::<u16>(),
            vec(s_candidate(), 0..4),
            any::<bool>()
        )
            .prop_map(|(qid, site, slots, satisfied)| RbayPayload::SearchEcho {
                query_id: QueryId(qid),
                site: SiteId(site),
                slots,
                satisfied,
            }),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u16>(),
            vec(s_string(), 0..3)
        )
            .prop_map(|(qid, reply_to, site, trees)| RbayPayload::RemoteProbe {
                query_id: QueryId(qid),
                reply_to: NodeAddr(reply_to),
                site: SiteId(site),
                trees,
            }),
        (s_search_state(), s_string())
            .prop_map(|(state, tree)| RbayPayload::RemoteSearch { state, tree }),
        any::<u64>().prop_map(|qid| RbayPayload::Commit {
            query_id: QueryId(qid)
        }),
        any::<u64>().prop_map(|qid| RbayPayload::Release {
            query_id: QueryId(qid)
        }),
        (any::<u64>(), s_string(), s_attr_value(), any::<u64>()).prop_map(
            |(cmd_id, attr, payload, at)| RbayPayload::Admin(AdminCommand {
                cmd_id,
                attr,
                payload,
                issued_at: SimTime::from_micros(at),
            })
        ),
        (any::<u32>(), s_string()).prop_map(|(reply_to, tree)| RbayPayload::StatsProbe {
            reply_to: NodeAddr(reply_to),
            tree,
        }),
        (
            s_string(),
            option::of(any::<u64>().prop_map(AggValue::Count)),
            any::<bool>()
        )
            .prop_map(|(tree, agg, exists)| RbayPayload::StatsEcho { tree, agg, exists }),
        (any::<u64>(), s_node_info()).prop_map(|(nonce, info)| RbayPayload::Ping { nonce, info }),
        (any::<u64>(), s_node_info()).prop_map(|(nonce, info)| RbayPayload::Pong { nonce, info }),
        (s_string(), any::<bool>())
            .prop_map(|(attr, fanout)| RbayPayload::Invalidate { attr, fanout }),
    ]
    .boxed()
}

fn s_event() -> impl Strategy<Value = RbayEvent> {
    prop_oneof![
        (any::<u128>(), any::<u64>(), any::<u64>()).prop_map(|(topic, req, att)| {
            RbayEvent::Subscribed {
                topic: TopicId(NodeId(topic)),
                requested_at: SimTime::from_micros(req),
                attached_at: SimTime::from_micros(att),
            }
        }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(cmd_id, iss, del)| {
            RbayEvent::AdminDelivered {
                cmd_id,
                issued_at: SimTime::from_micros(iss),
                delivered_at: SimTime::from_micros(del),
            }
        }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
            |(qid, iss, done, satisfied)| RbayEvent::QueryDone {
                query_id: QueryId(qid),
                issued_at: SimTime::from_micros(iss),
                completed_at: SimTime::from_micros(done),
                satisfied,
            }
        ),
    ]
}

fn s_rbay_msg() -> BoxedStrategy<RbayMsg> {
    let scribe = prop_oneof![
        (any::<u128>(), s_payload(), any::<u32>()).prop_map(|(topic, payload, origin)| {
            ScribeMsg::Anycast {
                topic: TopicId(NodeId(topic)),
                scope: None,
                payload,
                origin: NodeAddr(origin),
            }
        }),
        (any::<u128>(), s_payload()).prop_map(|(topic, payload)| ScribeMsg::MulticastData {
            topic: TopicId(NodeId(topic)),
            payload,
        }),
        s_payload().prop_map(ScribeMsg::AppDirect),
    ];
    prop_oneof![
        (any::<u128>(), scribe.boxed(), any::<u16>()).prop_map(|(key, payload, hops)| {
            PastryMsg::Route {
                key: NodeId(key),
                payload,
                hops,
                scope: None,
            }
        }),
        s_payload().prop_map(|p| PastryMsg::Direct(ScribeMsg::AppDirect(p))),
    ]
    .boxed()
}

/// Every declared tag of `RbayPayload` and `RbayEvent` comes out of its
/// strategy (and the tag tables are unique and dense from 0): a variant
/// added to a `wire_enum!` but not to the strategy above fails here.
#[test]
fn strategies_cover_every_declared_tag() {
    fn samples<T>(s: impl Strategy<Value = T>) -> impl Iterator<Item = T> {
        let mut rng = TestRng::seed_for("strategies_cover_every_declared_tag");
        (0..2048).map(move |_| s.gen_value(&mut rng))
    }
    assert_tags_covered(samples(s_payload()));
    assert_tags_covered(samples(s_event()));
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

/// Byte-identity round trip (the payload enums have no `PartialEq`; a
/// lost or swapped field shows up as a byte diff on re-encode).
fn reencodes<T: Wire>(v: &T) -> T {
    let bytes = encode_frame(v);
    let back = decode_frame::<T>(&bytes).expect("valid frame decodes");
    assert_eq!(
        bytes,
        encode_frame(&back),
        "decode(encode(x)) re-encoded differently"
    );
    back
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn query_ids_round_trip(id in any::<u64>()) {
        prop_assert_eq!(reencodes(&QueryId(id)), QueryId(id));
    }

    #[test]
    fn candidates_round_trip(c in s_candidate()) {
        prop_assert_eq!(reencodes(&c), c);
    }

    #[test]
    fn search_states_round_trip(s in s_search_state()) {
        let back = reencodes(&s);
        prop_assert_eq!(back.query.as_ref(), s.query.as_ref());
        prop_assert_eq!(back.slots, s.slots);
    }

    #[test]
    fn payloads_round_trip(p in s_payload()) {
        reencodes(&p);
    }

    #[test]
    fn events_round_trip(e in s_event()) {
        prop_assert_eq!(reencodes(&e), e);
    }

    #[test]
    fn full_rbay_msgs_round_trip(m in s_rbay_msg()) {
        reencodes(&m);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic(bytes in vec(any::<u8>(), 0..96)) {
        let _ = decode_frame::<RbayMsg>(&bytes);
        let _ = decode_frame::<RbayPayload>(&bytes);
        let _ = decode_frame::<SearchState>(&bytes);
        let _ = decode_frame::<Candidate>(&bytes);
        let _ = decode_frame::<RbayEvent>(&bytes);
    }

    #[test]
    fn truncations_always_error(m in s_rbay_msg()) {
        let bytes = encode_frame(&m);
        for len in 0..bytes.len() {
            prop_assert!(
                decode_frame::<RbayMsg>(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn bit_flips_never_panic(m in s_rbay_msg(), pos in any::<usize>(), flip in 1u8..255) {
        let mut bytes = encode_frame(&m);
        let n = bytes.len();
        bytes[pos % n] ^= flip;
        if let Ok(back) = decode_frame::<RbayMsg>(&bytes) {
            let _ = encode_frame(&back);
        }
    }
}
