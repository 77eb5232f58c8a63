//! Golden bytes for the wire format: one fixed vector per variant of every
//! wire enum and per struct this crate encodes. The encoding is a frozen
//! data format (peers of mixed versions and WALs on disk depend on it), and
//! the round-trip proptests pass under *any* self-consistent re-encoding —
//! these vectors are what pins the actual bytes. They were generated at the
//! commit before the codec became declarative and must never be edited to
//! make a change pass; a new variant appends a new vector.

use pastry::{NodeId, NodeInfo, PastryMsg};
use rbay_query::{AttrValue, CmpOp, FromClause, Predicate, Query, SortDir};
use rbay_wire::{
    decode_frame, encode_frame, DropStats, Hello, Reader, Wire, CANON_NAN_BITS, WIRE_VERSION,
};
use scribe::{AggValue, ScribeMsg, TopicId};
use simnet::{NodeAddr, SimDuration, SimTime, SiteId};
use std::fmt::Debug;

/// `v` encodes to exactly `hex`, and those bytes decode back to `v`
/// (compared through `Debug`: the message enums have no `PartialEq`).
#[track_caller]
fn golden<T: Wire + Debug>(v: T, hex: &str) {
    let bytes = v.encode();
    let got: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(got, hex, "encoding moved for {v:?}");
    assert_eq!(v.encoded_len(), bytes.len(), "encoded_len miscounts {v:?}");
    let mut r = Reader::new(&bytes);
    let back = T::decode(&mut r).expect("golden bytes decode");
    assert!(r.is_empty(), "decode left bytes behind for {v:?}");
    assert_eq!(format!("{back:?}"), format!("{v:?}"));
}

fn info(n: u32) -> NodeInfo {
    NodeInfo {
        id: NodeId(0x0123_4567_89ab_cdef_0011_2233_4455_6677 + n as u128),
        addr: NodeAddr(n),
        site: SiteId((n % 300) as u16),
    }
}

fn topic() -> TopicId {
    TopicId(NodeId(0xfeed_face_cafe_beef_0000_0000_0000_002a))
}

/// Version 2 folded three `RbayPayload` variants (tags 2, 4 and 5) into
/// `SiteSearch` and dropped `SizeProbe`'s `reply_to` and `site`; a
/// version-1 frame is refused whole.
#[test]
fn wire_version_is_two() {
    assert_eq!(WIRE_VERSION, 2);
    assert_eq!(encode_frame(&7u64), [2, 7]);
    assert_eq!(decode_frame::<u64>(&[2, 7]).unwrap(), 7);
    assert!(decode_frame::<u64>(&[1, 7]).is_err());
}

#[test]
fn primitives_and_containers() {
    golden(0x7fu8, "7f");
    golden(300u16, "ac02");
    golden(70_000u32, "f0a204");
    golden(u64::MAX, "ffffffffffffffffff01");
    golden(1u128 << 100, "00000000000000000000000010000000");
    golden(true, "01");
    golden(-1.5f64, "000000000000f8bf");
    golden(f64::from_bits(0x7ff0_dead_beef_0001), "000000000000f87f");
    assert_eq!(CANON_NAN_BITS, 0x7ff8_0000_0000_0000);
    golden("Ω界a".to_owned(), "06cea9e7958c61");
    golden(None::<u32>, "00");
    golden(Some(5u32), "0105");
    golden(vec![1u64, 128, 16_384], "03018001808001");
    golden(Vec::<String>::new(), "00");
}

#[test]
fn ids_and_times() {
    golden(NodeAddr(70_000), "f0a204");
    golden(SiteId(300), "ac02");
    golden(SimTime::from_micros(1_000_000), "c0843d");
    golden(SimDuration::from_micros(250), "fa01");
    golden(
        NodeId(0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10),
        "100f0e0d0c0b0a090807060504030201",
    );
    golden(info(70_000), "e777564433221100efcdab8967452301f0a20464");
    golden(topic(), "2a00000000000000efbefecacefaedfe");
}

#[test]
fn agg_values() {
    golden(AggValue::Count(300), "00ac02");
    golden(AggValue::Sum(2.5), "010000000000000440");
    golden(AggValue::Min(-1.0), "02000000000000f0bf");
    golden(AggValue::Max(1e9), "030000000065cdcd41");
    golden(
        AggValue::Mean { sum: 7.5, count: 3 },
        "040000000000001e4003",
    );
    golden(
        AggValue::Multi(vec![
            AggValue::Count(1),
            AggValue::Multi(vec![AggValue::Min(0.0)]),
            AggValue::Multi(vec![]),
        ]),
        "0503000105010200000000000000000500",
    );
}

#[test]
fn pastry_msgs() {
    type M = PastryMsg<u64>;
    golden(
        M::Route {
            key: NodeId(42),
            payload: 7,
            hops: 300,
            scope: Some(SiteId(2)),
        },
        "002a00000000000000000000000000000007ac020102",
    );
    golden(
        M::Join {
            joiner: info(9),
            rows: vec![vec![info(1), info(2)], vec![]],
            hops: 1,
        },
        "018066554433221100efcdab8967452301090902027866554433221100efcdab896745230101017966554433221100efcdab896745230102020001",
    );
    golden(
        M::JoinReply {
            rows: vec![vec![info(3)]],
            leaves: vec![info(4), info(5)],
            root: info(6),
        },
        "0201017a66554433221100efcdab89674523010303027b66554433221100efcdab896745230104047c66554433221100efcdab896745230105057d66554433221100efcdab89674523010606",
    );
    golden(
        M::Announce { info: info(7) },
        "037e66554433221100efcdab89674523010707",
    );
    golden(M::RowRequest { row: 31 }, "041f");
    golden(
        M::RowReply {
            row: 200,
            entries: vec![info(8)],
        },
        "05c8017f66554433221100efcdab89674523010808",
    );
    golden(M::LeafRepairRequest, "06");
    golden(
        M::LeafRepairReply {
            leaves: vec![info(10), info(11)],
        },
        "07028166554433221100efcdab89674523010a0a8266554433221100efcdab89674523010b0b",
    );
    golden(M::Direct(u64::MAX), "08ffffffffffffffffff01");
}

#[test]
fn scribe_msgs() {
    type M = ScribeMsg<String>;
    let p = || "pay".to_owned();
    golden(
        M::Join {
            topic: topic(),
            scope: Some(SiteId(3)),
            child: info(12),
        },
        "002a00000000000000efbefecacefaedfe01038366554433221100efcdab89674523010c0c",
    );
    golden(
        M::JoinAck { topic: topic() },
        "012a00000000000000efbefecacefaedfe",
    );
    golden(
        M::Leave {
            topic: topic(),
            child: NodeAddr(300),
        },
        "022a00000000000000efbefecacefaedfeac02",
    );
    golden(
        M::MulticastReq {
            topic: topic(),
            scope: None,
            payload: p(),
        },
        "032a00000000000000efbefecacefaedfe0003706179",
    );
    golden(
        M::MulticastData {
            topic: topic(),
            payload: p(),
        },
        "042a00000000000000efbefecacefaedfe03706179",
    );
    golden(
        M::Anycast {
            topic: topic(),
            scope: Some(SiteId(1)),
            payload: p(),
            origin: NodeAddr(5),
        },
        "052a00000000000000efbefecacefaedfe01010370617905",
    );
    golden(
        M::AnycastStep {
            topic: topic(),
            payload: p(),
            origin: NodeAddr(3),
            visited: vec![NodeAddr(1), NodeAddr(200)].into(),
            stack: vec![NodeAddr(9)].into(),
        },
        "062a00000000000000efbefecacefaedfe03706179030201c8010109",
    );
    golden(
        M::AnycastResult {
            topic: topic(),
            payload: p(),
            satisfied: true,
        },
        "072a00000000000000efbefecacefaedfe0370617901",
    );
    golden(
        M::ProbeRoot {
            topic: topic(),
            scope: None,
            payload: p(),
            origin: NodeAddr(6),
        },
        "082a00000000000000efbefecacefaedfe000370617906",
    );
    golden(
        M::ProbeReply {
            topic: topic(),
            payload: p(),
            agg: Some(Box::new(AggValue::Count(12))),
            exists: true,
        },
        "092a00000000000000efbefecacefaedfe0370617901000c01",
    );
    golden(
        M::AggUpdate {
            topic: topic(),
            value: AggValue::Mean { sum: 1.0, count: 2 },
        },
        "0a2a00000000000000efbefecacefaedfe04000000000000f03f02",
    );
    golden(
        M::NotChild { topic: topic() },
        "0b2a00000000000000efbefecacefaedfe",
    );
    golden(M::AppDirect(p()), "0c03706179");
    golden(
        M::ReplicaSync {
            topic: topic(),
            scope: Some(SiteId(7)),
            children: vec![NodeAddr(1), NodeAddr(2)],
            agg: None,
            subscribers: 1_000,
        },
        "0d2a00000000000000efbefecacefaedfe010702010200e807",
    );
}

#[test]
fn nested_overlay_message() {
    golden(
        PastryMsg::Route {
            key: NodeId(1),
            payload: ScribeMsg::AppDirect(AggValue::Multi(vec![AggValue::Sum(1.0)])),
            hops: 0,
            scope: None,
        },
        "00010000000000000000000000000000000c050101000000000000f03f0000",
    );
}

#[test]
fn query_ast() {
    golden(AttrValue::Bool(true), "0001");
    golden(AttrValue::Num(0.25), "01000000000000d03f");
    golden(AttrValue::Str("GPU".into()), "0203475055");
    golden(CmpOp::Eq, "00");
    golden(CmpOp::Ne, "01");
    golden(CmpOp::Lt, "02");
    golden(CmpOp::Le, "03");
    golden(CmpOp::Gt, "04");
    golden(CmpOp::Ge, "05");
    golden(SortDir::Asc, "00");
    golden(SortDir::Desc, "01");
    golden(FromClause::AllSites, "00");
    golden(
        FromClause::Sites(vec!["Virginia".into(), "Tokyo".into()]),
        "01020856697267696e696105546f6b796f",
    );
    let pred = Predicate {
        attr: "CPU_utilization".into(),
        op: CmpOp::Lt,
        value: AttrValue::Num(10.0),
    };
    golden(
        pred.clone(),
        "0f4350555f7574696c697a6174696f6e02010000000000002440",
    );
    golden(
        Query {
            k: 5,
            from: FromClause::Sites(vec!["Tokyo".into()]),
            predicates: vec![pred],
            order_by: Some(("CPU_utilization".into(), SortDir::Desc)),
        },
        "05010105546f6b796f010f4350555f7574696c697a6174696f6e02010000000000002440010f4350555f7574696c697a6174696f6e01",
    );
    golden(
        Query {
            k: 1,
            from: FromClause::AllSites,
            predicates: vec![],
            order_by: None,
        },
        "01000000",
    );
}

#[test]
fn bus_handshake_and_drop_stats() {
    golden(Hello::Peer(NodeAddr(300)), "00ac02");
    golden(Hello::Ctrl, "01");
    golden(
        DropStats {
            unresolvable: 1,
            outbound_full: 200,
            write_cap: 3,
            connect_exhausted: 40_000,
            conn_closed: 5,
        },
        "01c80103c0b80205",
    );
}
