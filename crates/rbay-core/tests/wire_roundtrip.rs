//! Property tests for the `Wire` impls on RBAY's own payload types: the
//! full cross-node message (`RbayMsg` = Pastry ⟨Scribe ⟨RbayPayload⟩⟩)
//! survives encode → decode → encode byte-identically, corrupt bytes
//! never panic the decoder, and whatever a hostile frame decodes to never
//! panics the node it is delivered to.

use pastry::{NodeId, NodeInfo, PastryMsg};
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use proptest::TestRng;
use rbay_core::{
    AdminCommand, Candidate, Federation, FrontdoorConfig, QueryId, RbayConfig, RbayMsg,
    RbayPayload, SearchState,
};
use rbay_query::{AttrValue, CmpOp, FromClause, Predicate, Query, SortDir};
use rbay_wire::{assert_tags_covered, decode_frame, encode_frame, Wire};
use scribe::{AggValue, ScribeMsg, TopicId};
use simnet::{NodeAddr, SimDuration, SimTime, SiteId, TimerToken, Topology, Transport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// What a generated message may name besides arbitrary values: the trees
/// and members of the federation a hostile frame is aimed at, so that some
/// frames get past a receiver's "unknown tree / query / peer" checks. The
/// round trips aim at nothing.
#[derive(Clone, Default)]
struct Aim {
    topics: Vec<TopicId>,
    nodes: u32,
}

impl Aim {
    /// Either an arbitrary `u32` or a member's address.
    fn addr(&self) -> BoxedStrategy<NodeAddr> {
        let nodes = self.nodes.max(1);
        prop_oneof![ends(0, u32::MAX), 0..nodes]
            .prop_map(NodeAddr)
            .boxed()
    }

    /// Either an arbitrary key or a tree the federation holds.
    fn topic(&self) -> BoxedStrategy<TopicId> {
        let any_topic = any::<u128>().prop_map(|k| TopicId(NodeId(k)));
        if self.topics.is_empty() {
            return any_topic.boxed();
        }
        let topics = self.topics.clone();
        prop_oneof![any_topic, (0..topics.len()).prop_map(move |i| topics[i])].boxed()
    }

    /// Either an arbitrary `u64` or one of a member's first queries.
    fn query_id(&self) -> BoxedStrategy<QueryId> {
        let issued = (self.addr(), 0u32..4).prop_map(|(a, seq)| QueryId::new(a, seq));
        prop_oneof![ends(0, u64::MAX).prop_map(QueryId), issued].boxed()
    }
}

/// Any value of an integer type, with its two extremes far likelier than
/// uniform draws make them (an overflow hides at the ends).
fn ends<T: Arbitrary + Clone + 'static>(lo: T, hi: T) -> BoxedStrategy<T> {
    prop_oneof![any::<T>(), Just(lo), Just(hi)].boxed()
}

fn s_string() -> impl Strategy<Value = String> {
    vec(0usize..6, 0..10).prop_map(|ix| {
        ix.into_iter()
            .map(|i| ['G', 'P', 'u', '=', '%', 'é'][i])
            .collect()
    })
}

fn s_site() -> BoxedStrategy<SiteId> {
    prop_oneof![ends(0, u16::MAX), 0u16..8]
        .prop_map(SiteId)
        .boxed()
}

fn s_scope() -> impl Strategy<Value = Option<SiteId>> {
    option::of(s_site())
}

fn s_attr_value() -> BoxedStrategy<AttrValue> {
    prop_oneof![
        any::<bool>().prop_map(AttrValue::Bool),
        any::<f64>().prop_map(AttrValue::Num),
        s_string().prop_map(AttrValue::Str),
    ]
    .boxed()
}

fn s_agg_value() -> BoxedStrategy<AggValue> {
    let leaf = prop_oneof![
        ends(0, u64::MAX).prop_map(AggValue::Count),
        any::<f64>().prop_map(AggValue::Sum),
        any::<f64>().prop_map(AggValue::Min),
        any::<f64>().prop_map(AggValue::Max),
        (any::<f64>(), ends(0, u64::MAX)).prop_map(|(sum, count)| AggValue::Mean { sum, count }),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| vec(inner, 0..4).prop_map(AggValue::Multi))
}

fn s_node_info(aim: &Aim) -> impl Strategy<Value = NodeInfo> {
    (any::<u128>(), aim.addr(), s_site()).prop_map(|(id, addr, site)| NodeInfo {
        id: NodeId(id),
        addr,
        site,
    })
}

fn s_candidate(aim: &Aim) -> impl Strategy<Value = Candidate> {
    (
        any::<u128>(),
        aim.addr(),
        s_site(),
        option::of(s_attr_value()),
    )
        .prop_map(|(id, addr, site, sort_key)| Candidate {
            id: NodeId(id),
            addr,
            site,
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
        prop_oneof![ends(0, u32::MAX), 0u32..16],
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

fn s_search_state(aim: &Aim) -> impl Strategy<Value = SearchState> {
    (
        aim.query_id(),
        aim.addr(),
        s_query(),
        option::of(s_string()),
        vec(s_candidate(aim), 0..4),
    )
        .prop_map(|(query_id, reply_to, query, password, slots)| SearchState {
            query_id,
            reply_to,
            query: Rc::new(query),
            password,
            slots: slots.into(),
        })
}

fn s_payload(aim: &Aim) -> BoxedStrategy<RbayPayload> {
    prop_oneof![
        (aim.query_id(), ends(0, u8::MAX))
            .prop_map(|(query_id, tree_idx)| RbayPayload::SizeProbe { query_id, tree_idx }),
        s_search_state(aim).prop_map(RbayPayload::Search),
        (
            aim.query_id(),
            s_site(),
            vec(s_candidate(aim), 0..4),
            any::<bool>()
        )
            .prop_map(
                |(query_id, site, slots, satisfied)| RbayPayload::SearchEcho {
                    query_id,
                    site,
                    slots,
                    satisfied,
                }
            ),
        aim.query_id()
            .prop_map(|query_id| RbayPayload::Commit { query_id }),
        aim.query_id()
            .prop_map(|query_id| RbayPayload::Release { query_id }),
        (any::<u64>(), s_string(), s_attr_value(), any::<u64>()).prop_map(
            |(cmd_id, attr, payload, at)| RbayPayload::Admin(Box::new(AdminCommand {
                cmd_id,
                attr,
                payload,
                issued_at: SimTime::from_micros(at),
            }))
        ),
        (aim.addr(), s_string())
            .prop_map(|(reply_to, tree)| RbayPayload::StatsProbe { reply_to, tree }),
        (
            s_string(),
            option::of(s_agg_value().prop_map(Box::new)),
            any::<bool>()
        )
            .prop_map(|(tree, agg, exists)| RbayPayload::StatsEcho { tree, agg, exists }),
        (ends(0, u64::MAX), s_node_info(aim))
            .prop_map(|(nonce, info)| RbayPayload::Ping { nonce, info }),
        (ends(0, u64::MAX), s_node_info(aim))
            .prop_map(|(nonce, info)| RbayPayload::Pong { nonce, info }),
        (s_string(), any::<bool>())
            .prop_map(|(attr, fanout)| RbayPayload::Invalidate { attr, fanout }),
        (
            s_search_state(aim).prop_map(Box::new),
            vec(s_string(), 0..3)
        )
            .prop_map(|(state, trees)| RbayPayload::SiteSearch { state, trees }),
    ]
    .boxed()
}

fn s_scribe_msg(aim: &Aim) -> BoxedStrategy<ScribeMsg<RbayPayload>> {
    let (topic, addr, payload) = (aim.topic(), aim.addr(), s_payload(aim));
    prop_oneof![
        (topic.clone(), s_scope(), s_node_info(aim)).prop_map(|(topic, scope, child)| {
            ScribeMsg::Join {
                topic,
                scope,
                child,
            }
        }),
        topic.clone().prop_map(|topic| ScribeMsg::JoinAck { topic }),
        (topic.clone(), addr.clone()).prop_map(|(topic, child)| ScribeMsg::Leave { topic, child }),
        (topic.clone(), s_scope(), payload.clone()).prop_map(|(topic, scope, payload)| {
            ScribeMsg::MulticastReq {
                topic,
                scope,
                payload,
            }
        }),
        (topic.clone(), payload.clone())
            .prop_map(|(topic, payload)| ScribeMsg::MulticastData { topic, payload }),
        (topic.clone(), s_scope(), payload.clone(), addr.clone()).prop_map(
            |(topic, scope, payload, origin)| ScribeMsg::Anycast {
                topic,
                scope,
                payload,
                origin,
            }
        ),
        (
            topic.clone(),
            payload.clone(),
            addr.clone(),
            vec(addr.clone(), 0..5),
            vec(addr.clone(), 0..5),
        )
            .prop_map(|(topic, payload, origin, visited, stack)| {
                ScribeMsg::AnycastStep {
                    topic,
                    payload,
                    origin,
                    visited: visited.into(),
                    stack: stack.into(),
                }
            }),
        (topic.clone(), payload.clone(), any::<bool>()).prop_map(|(topic, payload, satisfied)| {
            ScribeMsg::AnycastResult {
                topic,
                payload,
                satisfied,
            }
        }),
        (topic.clone(), s_scope(), payload.clone(), addr.clone()).prop_map(
            |(topic, scope, payload, origin)| ScribeMsg::ProbeRoot {
                topic,
                scope,
                payload,
                origin,
            }
        ),
        (
            topic.clone(),
            payload.clone(),
            option::of(s_agg_value().prop_map(Box::new)),
            any::<bool>()
        )
            .prop_map(|(topic, payload, agg, exists)| ScribeMsg::ProbeReply {
                topic,
                payload,
                agg,
                exists,
            }),
        (topic.clone(), s_agg_value())
            .prop_map(|(topic, value)| ScribeMsg::AggUpdate { topic, value }),
        topic
            .clone()
            .prop_map(|topic| ScribeMsg::NotChild { topic }),
        payload.prop_map(ScribeMsg::AppDirect),
        (
            topic,
            s_scope(),
            vec(addr, 0..5),
            option::of(s_agg_value()),
            ends(0, u64::MAX),
        )
            .prop_map(|(topic, scope, children, agg, subscribers)| {
                ScribeMsg::ReplicaSync {
                    topic,
                    scope,
                    children,
                    agg,
                    subscribers,
                }
            }),
    ]
    .boxed()
}

/// Every `PastryMsg` variant around every `ScribeMsg` variant, each
/// integer field drawn over its whole range.
fn s_rbay_msg(aim: &Aim) -> BoxedStrategy<RbayMsg> {
    let info = s_node_info(aim).boxed();
    let rows = vec(vec(info.clone(), 0..3), 0..5).boxed();
    let key = prop_oneof![
        any::<u128>().prop_map(NodeId),
        aim.topic().prop_map(|t| t.key())
    ];
    prop_oneof![
        (key, s_scribe_msg(aim), ends(0, u16::MAX), s_scope()).prop_map(
            |(key, payload, hops, scope)| PastryMsg::Route {
                key,
                payload,
                hops,
                scope,
            }
        ),
        (info.clone(), rows.clone(), ends(0, u16::MAX))
            .prop_map(|(joiner, rows, hops)| PastryMsg::Join { joiner, rows, hops }),
        (rows, vec(info.clone(), 0..4), info.clone())
            .prop_map(|(rows, leaves, root)| PastryMsg::JoinReply { rows, leaves, root }),
        info.clone().prop_map(|info| PastryMsg::Announce { info }),
        ends(0, u8::MAX).prop_map(|row| PastryMsg::RowRequest { row }),
        (ends(0, u8::MAX), vec(info.clone(), 0..4))
            .prop_map(|(row, entries)| PastryMsg::RowReply { row, entries }),
        Just(PastryMsg::LeafRepairRequest),
        vec(info, 0..4).prop_map(|leaves| PastryMsg::LeafRepairReply { leaves }),
        s_scribe_msg(aim).prop_map(PastryMsg::Direct),
    ]
    .boxed()
}

/// Every declared tag of every message enum RBAY sends comes out of its
/// strategy (and the tag tables are unique): a variant added to a
/// `wire_enum!` but not to the strategies above fails here.
#[test]
fn strategies_cover_every_declared_tag() {
    fn samples<T>(s: impl Strategy<Value = T>) -> impl Iterator<Item = T> {
        let mut rng = TestRng::seed_for("strategies_cover_every_declared_tag");
        (0..2048).map(move |_| s.gen_value(&mut rng))
    }
    let aim = Aim::default();
    assert_tags_covered(samples(s_payload(&aim)));
    assert_tags_covered(samples(s_scribe_msg(&aim)));
    assert_tags_covered(samples(s_rbay_msg(&aim)));
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

/// Byte-identity round trip (the payload enums have no `PartialEq`; a
/// lost or swapped field shows up as a byte diff on re-encode).
fn reencodes<T: Wire>(v: &T) -> T {
    assert_eq!(v.encoded_len(), v.encode().len(), "encoded_len miscounts");
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
    fn candidates_round_trip(c in s_candidate(&Aim::default())) {
        prop_assert_eq!(reencodes(&c), c);
    }

    #[test]
    fn search_states_round_trip(s in s_search_state(&Aim::default())) {
        let back = reencodes(&s);
        prop_assert_eq!(back.query.as_ref(), s.query.as_ref());
        prop_assert_eq!(back.slots, s.slots);
    }

    #[test]
    fn payloads_round_trip(p in s_payload(&Aim::default())) {
        reencodes(&p);
    }

    #[test]
    fn full_rbay_msgs_round_trip(m in s_rbay_msg(&Aim::default())) {
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
    }

    #[test]
    fn truncations_always_error(m in s_rbay_msg(&Aim::default())) {
        let bytes = encode_frame(&m);
        for len in 0..bytes.len() {
            prop_assert!(
                decode_frame::<RbayMsg>(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn bit_flips_never_panic(m in s_rbay_msg(&Aim::default()), pos in any::<usize>(), flip in 1u8..255) {
        let mut bytes = encode_frame(&m);
        let n = bytes.len();
        bytes[pos % n] ^= flip;
        if let Ok(back) = decode_frame::<RbayMsg>(&bytes) {
            let _ = encode_frame(&back);
        }
    }
}

// ---------------------------------------------------------------------------
// Hostile frames at a live node
// ---------------------------------------------------------------------------

/// Keeps what the node under test sends instead of delivering it.
struct Outbox {
    now: SimTime,
    sent: Vec<(NodeAddr, RbayMsg)>,
}

impl Transport<RbayMsg> for Outbox {
    fn send(&mut self, to: NodeAddr, msg: RbayMsg) {
        self.sent.push((to, msg));
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn set_timer(&mut self, _: SimDuration, _: TimerToken) {}
}

/// 16 members over 8 sites with the failure detector and front doors on,
/// two attributes' trees built and one query answered: state for a
/// hostile frame to hit.
fn seeded_federation() -> Federation {
    let cfg = RbayConfig {
        failure_detection: true,
        frontdoor_invalidation: true,
        ..RbayConfig::default()
    };
    let mut fed = Federation::with_config(Topology::aws_ec2_8_sites(2), 29, cfg);
    fed.enable_frontdoor(FrontdoorConfig::default());
    for i in 0..16 {
        fed.post_resource(NodeAddr(i), "GPU", AttrValue::Bool(i % 2 == 0));
        fed.post_resource(NodeAddr(i), "mem", AttrValue::Num(f64::from(i)));
    }
    fed.run_maintenance(3, SimDuration::from_millis(250));
    fed.settle();
    fed.issue_query(NodeAddr(0), "SELECT 2 FROM * WHERE GPU = true", None)
        .expect("parses");
    fed.settle();
    fed
}

/// Hands `to` the frame `bytes` as sent by `from`, the way a daemon's
/// event loop does: nothing happens unless it decodes. Returns what the
/// node sent in response; a panic in the node is reported with the frame.
fn deliver(
    fed: &mut Federation,
    to: NodeAddr,
    from: NodeAddr,
    bytes: &[u8],
) -> Option<Vec<(NodeAddr, RbayMsg)>> {
    let msg = decode_frame::<RbayMsg>(bytes).ok()?;
    let mut out = Outbox {
        now: fed.sim().now(),
        sent: Vec::new(),
    };
    let node = fed.sim_mut().actor_mut(to);
    if catch_unwind(AssertUnwindSafe(|| {
        node.on_message_via(&mut out, from, msg)
    }))
    .is_err()
    {
        panic!(
            "{to} panicked on {bytes:?} from {from}: {:?}",
            decode_frame::<RbayMsg>(bytes)
        );
    }
    Some(out.sent)
}

/// Well-formed messages with every integer at any value, the same with one
/// byte flipped, and arbitrary bytes, each from an arbitrary sender to a
/// member of a live federation (the messages partly aimed at its real
/// trees, members and queries): whatever decodes is handled without a
/// panic.
#[test]
fn hostile_frames_never_panic_a_seeded_node() {
    const CASES: u32 = 12_000;
    let mut fed = seeded_federation();
    let nodes = fed.sim().topology().node_count() as u32;
    let mut topics: Vec<TopicId> = (0..nodes)
        .flat_map(|i| fed.node(NodeAddr(i)).scribe.topics().map(|(t, _)| *t))
        .collect();
    topics.sort_unstable();
    topics.dedup();
    let aim = Aim { topics, nodes };
    let (msgs, senders, garbage) = (s_rbay_msg(&aim), aim.addr(), vec(any::<u8>(), 0..96));
    let mut rng = TestRng::seed_for("hostile_frames_never_panic_a_seeded_node");
    let mut delivered = 0;
    for case in 0..CASES {
        let mut bytes = encode_frame(&msgs.gen_value(&mut rng));
        match case % 3 {
            0 => {}
            1 => {
                let pos = rng.below(bytes.len() as u64) as usize;
                bytes[pos] ^= 1 + rng.below(255) as u8;
            }
            _ => bytes = garbage.gen_value(&mut rng),
        }
        let from = senders.gen_value(&mut rng);
        delivered += u32::from(deliver(&mut fed, NodeAddr(case % nodes), from, &bytes).is_some());
    }
    assert!(
        delivered > CASES / 3,
        "only {delivered} of {CASES} frames decoded"
    );
}

/// A `RowRequest` names its row in one byte and a routing table has 32:
/// each of the 256 is answered with its row, the 224 past the table with
/// an empty one.
#[test]
fn every_row_a_byte_can_name_is_answered() {
    let mut fed = seeded_federation();
    let (me, asker) = (NodeAddr(3), NodeAddr(5));
    for row in 0..=u8::MAX {
        let frame = encode_frame(&RbayMsg::RowRequest { row });
        let sent = deliver(&mut fed, me, asker, &frame).expect("a valid frame");
        let reply = sent.iter().find_map(|(to, m)| match m {
            PastryMsg::RowReply { row: r, entries } if *to == asker && *r == row => Some(entries),
            _ => None,
        });
        let entries = reply.unwrap_or_else(|| panic!("no reply for row {row}: {sent:?}"));
        assert!(row < 32 || entries.is_empty(), "row {row}: {entries:?}");
    }
}
