//! Property tests for every `Wire` impl the crate provides: random
//! values survive an encode → decode → encode cycle byte-identically
//! (and value-identically where the type has `PartialEq`), and hostile
//! bytes — random garbage, truncations, bit flips — never panic the
//! decoder.

use pastry::{NodeId, NodeInfo, PastryMsg};
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use proptest::TestRng;
use rbay_query::{AttrValue, CmpOp, FromClause, Predicate, Query, SortDir};
use rbay_wire::{
    assert_tags_covered, decode_frame, encode_frame, FrameAssembler, Hello, Wire, MAX_FRAME_LEN,
};
use scribe::{AggValue, ScribeMsg, TopicId};
use simnet::{NodeAddr, SimDuration, SimTime, SiteId};

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn s_string() -> impl Strategy<Value = String> {
    // A small alphabet with multi-byte code points keeps UTF-8 handling
    // honest without blowing up frame sizes.
    vec(0usize..6, 0..12).prop_map(|ix| {
        ix.into_iter()
            .map(|i| ['a', 'Z', '0', '_', 'Ω', '界'][i])
            .collect()
    })
}

fn s_node_info() -> impl Strategy<Value = NodeInfo> {
    (any::<u128>(), any::<u32>(), any::<u16>()).prop_map(|(id, addr, site)| NodeInfo {
        id: NodeId(id),
        addr: NodeAddr(addr),
        site: SiteId(site),
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

fn s_agg_value() -> BoxedStrategy<AggValue> {
    let leaf = prop_oneof![
        any::<u64>().prop_map(AggValue::Count),
        any::<f64>().prop_map(AggValue::Sum),
        any::<f64>().prop_map(AggValue::Min),
        any::<f64>().prop_map(AggValue::Max),
        (any::<f64>(), any::<u64>()).prop_map(|(sum, count)| AggValue::Mean { sum, count }),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| vec(inner, 0..4).prop_map(AggValue::Multi))
}

fn s_cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn s_predicate() -> impl Strategy<Value = Predicate> {
    (s_string(), s_cmp_op(), s_attr_value()).prop_map(|(attr, op, value)| Predicate {
        attr,
        op,
        value,
    })
}

fn s_from_clause() -> impl Strategy<Value = FromClause> {
    prop_oneof![
        Just(FromClause::AllSites),
        vec(s_string(), 0..4).prop_map(FromClause::Sites),
    ]
}

fn s_sort_dir() -> impl Strategy<Value = SortDir> {
    prop_oneof![Just(SortDir::Asc), Just(SortDir::Desc)]
}

fn s_query() -> impl Strategy<Value = Query> {
    (
        1u32..64,
        s_from_clause(),
        vec(s_predicate(), 0..4),
        option::of((s_string(), s_sort_dir())),
    )
        .prop_map(|(k, from, predicates, order_by)| Query {
            k,
            from,
            predicates,
            order_by,
        })
}

fn s_scope() -> impl Strategy<Value = Option<SiteId>> {
    option::of(any::<u16>().prop_map(SiteId))
}

fn s_topic() -> BoxedStrategy<TopicId> {
    any::<u128>().prop_map(|k| TopicId(NodeId(k))).boxed()
}

fn s_addr() -> BoxedStrategy<NodeAddr> {
    any::<u32>().prop_map(NodeAddr).boxed()
}

fn s_scribe_msg() -> BoxedStrategy<ScribeMsg<AggValue>> {
    prop_oneof![
        (s_topic(), s_scope(), s_node_info()).prop_map(|(topic, scope, child)| {
            ScribeMsg::Join {
                topic,
                scope,
                child,
            }
        }),
        s_topic().prop_map(|topic| ScribeMsg::JoinAck { topic }),
        (s_topic(), s_addr()).prop_map(|(topic, child)| ScribeMsg::Leave { topic, child }),
        (s_topic(), s_scope(), s_agg_value()).prop_map(|(topic, scope, payload)| {
            ScribeMsg::MulticastReq {
                topic,
                scope,
                payload,
            }
        }),
        (s_topic(), s_agg_value())
            .prop_map(|(topic, payload)| ScribeMsg::MulticastData { topic, payload }),
        (s_topic(), s_scope(), s_agg_value(), s_addr()).prop_map(
            |(topic, scope, payload, origin)| ScribeMsg::Anycast {
                topic,
                scope,
                payload,
                origin,
            }
        ),
        (
            s_topic(),
            s_agg_value(),
            s_addr(),
            vec(s_addr(), 0..5),
            vec(s_addr(), 0..5),
        )
            .prop_map(|(topic, payload, origin, visited, stack)| {
                ScribeMsg::AnycastStep {
                    topic,
                    payload,
                    origin,
                    visited,
                    stack,
                }
            }),
        (s_topic(), s_agg_value(), any::<bool>()).prop_map(|(topic, payload, satisfied)| {
            ScribeMsg::AnycastResult {
                topic,
                payload,
                satisfied,
            }
        }),
        (s_topic(), s_scope(), s_agg_value(), s_addr()).prop_map(
            |(topic, scope, payload, origin)| ScribeMsg::ProbeRoot {
                topic,
                scope,
                payload,
                origin,
            }
        ),
        (
            s_topic(),
            s_agg_value(),
            option::of(s_agg_value()),
            any::<bool>()
        )
            .prop_map(|(topic, payload, agg, exists)| ScribeMsg::ProbeReply {
                topic,
                payload,
                agg,
                exists,
            }),
        (s_topic(), s_agg_value()).prop_map(|(topic, value)| ScribeMsg::AggUpdate { topic, value }),
        s_topic().prop_map(|topic| ScribeMsg::NotChild { topic }),
        s_agg_value().prop_map(ScribeMsg::AppDirect),
        (
            s_topic(),
            s_scope(),
            vec(s_addr(), 0..5),
            option::of(s_agg_value()),
            any::<u64>(),
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

fn s_pastry_msg() -> BoxedStrategy<PastryMsg<ScribeMsg<AggValue>>> {
    prop_oneof![
        (any::<u128>(), s_scribe_msg(), any::<u16>(), s_scope()).prop_map(
            |(key, payload, hops, scope)| PastryMsg::Route {
                key: NodeId(key),
                payload,
                hops,
                scope,
            }
        ),
        (
            s_node_info(),
            vec(vec(s_node_info(), 0..3), 0..3),
            any::<u16>()
        )
            .prop_map(|(joiner, rows, hops)| PastryMsg::Join { joiner, rows, hops }),
        (
            vec(vec(s_node_info(), 0..3), 0..3),
            vec(s_node_info(), 0..4),
            s_node_info()
        )
            .prop_map(|(rows, leaves, root)| PastryMsg::JoinReply { rows, leaves, root }),
        s_node_info().prop_map(|info| PastryMsg::Announce { info }),
        any::<u8>().prop_map(|row| PastryMsg::RowRequest { row }),
        (any::<u8>(), vec(s_node_info(), 0..4))
            .prop_map(|(row, entries)| PastryMsg::RowReply { row, entries }),
        Just(PastryMsg::LeafRepairRequest),
        vec(s_node_info(), 0..4).prop_map(|leaves| PastryMsg::LeafRepairReply { leaves }),
        s_scribe_msg().prop_map(PastryMsg::Direct),
    ]
    .boxed()
}

fn s_hello() -> impl Strategy<Value = Hello> {
    prop_oneof![s_addr().prop_map(Hello::Peer), Just(Hello::Ctrl)]
}

/// Every declared tag of every wire enum comes out of its strategy (and
/// the tag tables are unique and dense from 0): a variant added to a
/// `wire_enum!` but not to the strategy above fails here, not silently
/// escapes the round-trip and hostile-bytes properties below.
#[test]
fn strategies_cover_every_declared_tag() {
    fn samples<T>(s: impl Strategy<Value = T>) -> impl Iterator<Item = T> {
        let mut rng = TestRng::seed_for("strategies_cover_every_declared_tag");
        (0..2048).map(move |_| s.gen_value(&mut rng))
    }
    assert_tags_covered(samples(s_pastry_msg()));
    assert_tags_covered(samples(s_scribe_msg()));
    assert_tags_covered(samples(s_agg_value()));
    assert_tags_covered(samples(s_attr_value()));
    assert_tags_covered(samples(s_cmp_op()));
    assert_tags_covered(samples(s_sort_dir()));
    assert_tags_covered(samples(s_from_clause()));
    assert_tags_covered(samples(s_hello()));
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

/// Frames `v`, decodes it back, and checks the decoded value re-encodes
/// to the identical bytes (a round trip that needs no `PartialEq` on the
/// message type; any lost or swapped field shows up as a byte diff).
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
    fn primitives_round_trip(
        a in any::<u64>(),
        b in any::<u32>(),
        c in any::<u128>(),
        d in any::<bool>(),
        s in s_string(),
    ) {
        prop_assert_eq!(reencodes(&a), a);
        prop_assert_eq!(reencodes(&b), b);
        prop_assert_eq!(reencodes(&c), c);
        prop_assert_eq!(reencodes(&d), d);
        prop_assert_eq!(reencodes(&s), s);
    }

    #[test]
    fn ids_and_times_round_trip(addr in any::<u32>(), site in any::<u16>(), t in any::<u64>()) {
        prop_assert_eq!(reencodes(&NodeAddr(addr)), NodeAddr(addr));
        prop_assert_eq!(reencodes(&SiteId(site)), SiteId(site));
        let at = SimTime::from_micros(t);
        prop_assert_eq!(reencodes(&at), at);
        let span = SimDuration::from_micros(t);
        prop_assert_eq!(reencodes(&span), span);
    }

    #[test]
    fn node_info_round_trips(info in s_node_info()) {
        prop_assert_eq!(reencodes(&info), info);
    }

    #[test]
    fn hellos_round_trip(h in s_hello()) {
        prop_assert_eq!(reencodes(&h), h);
    }

    #[test]
    fn attr_values_round_trip(v in s_attr_value()) {
        prop_assert_eq!(reencodes(&v), v);
    }

    #[test]
    fn agg_values_round_trip(v in s_agg_value()) {
        prop_assert_eq!(reencodes(&v), v);
    }

    #[test]
    fn predicates_round_trip(p in s_predicate()) {
        prop_assert_eq!(reencodes(&p), p);
    }

    #[test]
    fn queries_round_trip(q in s_query()) {
        prop_assert_eq!(reencodes(&q), q);
    }

    #[test]
    fn scribe_msgs_round_trip(m in s_scribe_msg()) {
        reencodes(&m);
    }

    #[test]
    fn pastry_msgs_round_trip(m in s_pastry_msg()) {
        reencodes(&m);
    }
}

// ---------------------------------------------------------------------------
// Hostile bytes
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary garbage must decode to `Err`, never panic or hang. (A
    /// random buffer passing the version check *and* decoding cleanly
    /// *and* consuming every byte is possible in principle but never a
    /// panic.)
    #[test]
    fn random_bytes_never_panic(bytes in vec(any::<u8>(), 0..96)) {
        let _ = decode_frame::<PastryMsg<ScribeMsg<AggValue>>>(&bytes);
        let _ = decode_frame::<Query>(&bytes);
        let _ = decode_frame::<AggValue>(&bytes);
        let _ = decode_frame::<AttrValue>(&bytes);
        let _ = decode_frame::<NodeInfo>(&bytes);
    }

    /// Every strict prefix of a valid frame fails to decode (frames are
    /// not self-delimiting mid-structure) — and fails with an error, not
    /// a panic.
    #[test]
    fn truncations_always_error(m in s_pastry_msg()) {
        let bytes = encode_frame(&m);
        for len in 0..bytes.len() {
            prop_assert!(
                decode_frame::<PastryMsg<ScribeMsg<AggValue>>>(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    /// Flipping any byte of a valid frame never panics the decoder; when
    /// the flip still decodes, the result re-encodes without panicking.
    #[test]
    fn bit_flips_never_panic(m in s_pastry_msg(), pos in any::<usize>(), flip in 1u8..255) {
        let mut bytes = encode_frame(&m);
        let n = bytes.len();
        bytes[pos % n] ^= flip;
        if let Ok(back) = decode_frame::<PastryMsg<ScribeMsg<AggValue>>>(&bytes) {
            let _ = encode_frame(&back);
        }
    }
}

// ---------------------------------------------------------------------------
// Frame runs through the assembler (the event-loop inbound path)
// ---------------------------------------------------------------------------

/// Concatenates length-prefixed frames into one byte run the way the
/// socket writer lays them out: `[u32 LE len][body]` per frame.
fn run_of(encoded: &[Vec<u8>]) -> Vec<u8> {
    let mut run = Vec::new();
    for body in encoded {
        run.extend_from_slice(&(body.len() as u32).to_le_bytes());
        run.extend_from_slice(body);
    }
    run
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A concatenated run of N encoded frames, fed in arbitrary chunk
    /// splits (including byte-at-a-time and whole-run chunks), reassembles
    /// to exactly the N original messages in order.
    #[test]
    fn frame_runs_reassemble_across_any_split(
        msgs in vec(s_pastry_msg(), 1..8),
        splits in vec(1usize..64, 1..32),
    ) {
        let encoded: Vec<Vec<u8>> = msgs.iter().map(encode_frame).collect();
        let run = run_of(&encoded);
        let mut asm = FrameAssembler::new(MAX_FRAME_LEN);
        let mut frames = Vec::new();
        let mut off = 0;
        let mut turn = 0;
        while off < run.len() {
            let step = splits[turn % splits.len()].min(run.len() - off);
            turn += 1;
            asm.feed(run[off..off + step].to_vec(), &mut frames).expect("valid run");
            off += step;
        }
        prop_assert_eq!(frames.len(), encoded.len());
        for (frame, body) in frames.iter().zip(&encoded) {
            prop_assert_eq!(&frame[..], &body[..]);
            prop_assert!(decode_frame::<PastryMsg<ScribeMsg<AggValue>>>(frame).is_ok());
        }
        prop_assert_eq!(asm.pending_len(), 0);
    }

    /// Truncating a run mid-frame yields only the complete frames; the
    /// cut tail stays pending (never a panic, never a partial frame).
    #[test]
    fn truncated_runs_hold_the_tail(msgs in vec(s_pastry_msg(), 1..6), cut in 1usize..1024) {
        let encoded: Vec<Vec<u8>> = msgs.iter().map(encode_frame).collect();
        let run = run_of(&encoded);
        let cut = cut % run.len();
        let keep = run.len() - 1 - cut.min(run.len() - 1); // strict prefix
        let mut asm = FrameAssembler::new(MAX_FRAME_LEN);
        let mut frames = Vec::new();
        asm.feed(run[..keep].to_vec(), &mut frames).expect("prefix of a valid run");
        prop_assert!(frames.len() < encoded.len());
        for (frame, body) in frames.iter().zip(&encoded) {
            prop_assert_eq!(&frame[..], &body[..]);
        }
        // Whatever was cut mid-frame is still buffered, not emitted.
        prop_assert_eq!(asm.pending_len() + frames.iter().map(|f| f.len() + 4).sum::<usize>(), keep);
    }

    /// A valid run followed by garbage still yields the valid frames; the
    /// garbage either stays pending, parses as further (decodable or not)
    /// frames, or errors on an oversized length — never a panic, and
    /// never corruption of the preceding frames.
    #[test]
    fn garbage_suffix_never_corrupts_prior_frames(
        msgs in vec(s_pastry_msg(), 1..6),
        junk in vec(any::<u8>(), 0..64),
    ) {
        let encoded: Vec<Vec<u8>> = msgs.iter().map(encode_frame).collect();
        let mut run = run_of(&encoded);
        run.extend_from_slice(&junk);
        let mut asm = FrameAssembler::new(MAX_FRAME_LEN);
        let mut frames = Vec::new();
        let fed = asm.feed(run, &mut frames);
        match fed {
            Ok(()) => {
                prop_assert!(frames.len() >= encoded.len());
                for (frame, body) in frames.iter().zip(&encoded) {
                    prop_assert_eq!(&frame[..], &body[..]);
                }
            }
            // The junk happened to form an over-MAX_FRAME_LEN length
            // prefix; the feed reports it instead of allocating.
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
        }
    }
}
