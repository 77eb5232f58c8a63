//! Golden bytes for RBAY's own payload types: one fixed vector per variant
//! of `RbayPayload` and `RbayEvent` and per struct they carry. Generated at
//! the commit before the codec became declarative; see
//! `rbay-wire/tests/golden.rs` for why these must never be edited.

use pastry::{NodeId, NodeInfo, PastryMsg};
use rbay_core::{
    AdminCommand, Candidate, FrontdoorStats, QueryId, RbayEvent, RbayMsg, RbayPayload, SearchState,
};
use rbay_query::{AttrValue, CmpOp, FromClause, Predicate, Query, SortDir};
use rbay_wire::{Reader, Wire};
use scribe::{AggValue, ScribeMsg, TopicId};
use simnet::{NodeAddr, SimTime, SiteId};
use std::fmt::Debug;
use std::rc::Rc;

/// `v` encodes to exactly `hex`, and those bytes decode back to `v`
/// (compared through `Debug`: the payload enums have no `PartialEq`).
#[track_caller]
fn golden<T: Wire + Debug>(v: T, hex: &str) {
    let bytes = v.encode();
    let got: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(got, hex, "encoding moved for {v:?}");
    let mut r = Reader::new(&bytes);
    let back = T::decode(&mut r).expect("golden bytes decode");
    assert!(r.is_empty(), "decode left bytes behind for {v:?}");
    assert_eq!(format!("{back:?}"), format!("{v:?}"));
}

fn info() -> NodeInfo {
    NodeInfo {
        id: NodeId(0xaaaa_bbbb_cccc_dddd_0000_1111_2222_3333),
        addr: NodeAddr(300),
        site: SiteId(2),
    }
}

fn candidate(n: u32, sort_key: Option<AttrValue>) -> Candidate {
    Candidate {
        id: NodeId(0x1000 + n as u128),
        addr: NodeAddr(n),
        site: SiteId(1),
        sort_key,
    }
}

fn search_state() -> SearchState {
    SearchState {
        query_id: QueryId::new(NodeAddr(3), 9),
        reply_to: NodeAddr(3),
        query: Rc::new(Query {
            k: 2,
            from: FromClause::Sites(vec!["Tokyo".into()]),
            predicates: vec![Predicate {
                attr: "GPU".into(),
                op: CmpOp::Eq,
                value: AttrValue::Bool(true),
            }],
            order_by: Some(("CPU_utilization".into(), SortDir::Asc)),
        }),
        password: Some("pw".into()),
        slots: vec![
            candidate(4, Some(AttrValue::Num(12.5))),
            candidate(200, None),
        ],
    }
}

#[test]
fn structs() {
    golden(QueryId(u64::MAX), "ffffffffffffffffff01");
    golden(
        FrontdoorStats {
            hits: 10,
            misses: 400,
            coalesced: 2,
            shed: 1,
            invalidations: 3,
            evictions: 0,
        },
        "0a900302010300",
    );
    golden(
        candidate(7, Some(AttrValue::Str("m5.large".into()))),
        "0710000000000000000000000000000007010102086d352e6c61726765",
    );
    golden(search_state(), "89808080300302010105546f6b796f0103475055000001010f4350555f7574696c697a6174696f6e00010270770204100000000000000000000000000000040101010000000000002940c8100000000000000000000000000000c8010100");
    golden(
        AdminCommand {
            cmd_id: 77,
            attr: "price".into(),
            payload: AttrValue::Num(0.5),
            issued_at: SimTime::from_micros(1_500_000),
        },
        "4d05707269636501000000000000e03fe0c65b",
    );
}

#[test]
fn payloads() {
    use RbayPayload as P;
    let qid = QueryId::new(NodeAddr(1), 2);
    golden(
        P::SizeProbe {
            query_id: qid,
            tree_idx: 3,
            reply_to: NodeAddr(1),
            site: SiteId(4),
        },
        "008280808010030104",
    );
    golden(P::Search(search_state()), "0189808080300302010105546f6b796f0103475055000001010f4350555f7574696c697a6174696f6e00010270770204100000000000000000000000000000040101010000000000002940c8100000000000000000000000000000c8010100");
    golden(
        P::ProbeEcho {
            query_id: qid,
            tree_idx: 1,
            site: SiteId(300),
            size: Some(1_000),
            exists: true,
        },
        "02828080801001ac0201e80701",
    );
    golden(
        P::SearchEcho {
            query_id: qid,
            site: SiteId(0),
            slots: vec![candidate(5, None)],
            satisfied: false,
        },
        "03828080801000010510000000000000000000000000000005010000",
    );
    golden(
        P::RemoteProbe {
            query_id: qid,
            reply_to: NodeAddr(1),
            site: SiteId(2),
            trees: vec!["GPU=true".into(), "rack".into()],
        },
        "048280808010010202084750553d74727565047261636b",
    );
    golden(
        P::RemoteSearch {
            state: search_state(),
            tree: "GPU=true".into(),
        },
        "0589808080300302010105546f6b796f0103475055000001010f4350555f7574696c697a6174696f6e00010270770204100000000000000000000000000000040101010000000000002940c8100000000000000000000000000000c8010100084750553d74727565",
    );
    golden(P::Commit { query_id: qid }, "068280808010");
    golden(P::Release { query_id: qid }, "078280808010");
    golden(
        P::Admin(AdminCommand {
            cmd_id: 1,
            attr: "expires".into(),
            payload: AttrValue::Bool(false),
            issued_at: SimTime::from_micros(42),
        }),
        "0801076578706972657300002a",
    );
    golden(
        P::StatsProbe {
            reply_to: NodeAddr(8),
            tree: "CPU".into(),
        },
        "090803435055",
    );
    golden(
        P::StatsEcho {
            tree: "CPU".into(),
            agg: Some(AggValue::Mean {
                sum: 90.0,
                count: 4,
            }),
            exists: true,
        },
        "0a03435055010400000000008056400401",
    );
    golden(
        P::Ping {
            nonce: 99,
            info: info(),
        },
        "0b633333222211110000ddddccccbbbbaaaaac0202",
    );
    golden(
        P::Pong {
            nonce: 100,
            info: info(),
        },
        "0c643333222211110000ddddccccbbbbaaaaac0202",
    );
    golden(
        P::Invalidate {
            attr: "GPU".into(),
            fanout: true,
        },
        "0d0347505501",
    );
}

#[test]
fn events() {
    golden(
        RbayEvent::Subscribed {
            topic: TopicId(NodeId(5)),
            requested_at: SimTime::from_micros(10),
            attached_at: SimTime::from_micros(20_000),
        },
        "00050000000000000000000000000000000aa09c01",
    );
    golden(
        RbayEvent::AdminDelivered {
            cmd_id: 3,
            issued_at: SimTime::from_micros(1),
            delivered_at: SimTime::from_micros(2),
        },
        "01030102",
    );
    golden(
        RbayEvent::QueryDone {
            query_id: QueryId(1 << 40),
            issued_at: SimTime::from_micros(0),
            completed_at: SimTime::from_micros(644_000),
            satisfied: true,
        },
        "0280808080802000a0a72701",
    );
}

#[test]
fn full_overlay_message() {
    let m: RbayMsg = PastryMsg::Route {
        key: NodeId(0xdead_beef),
        payload: ScribeMsg::Anycast {
            topic: TopicId(NodeId(0x77)),
            scope: Some(SiteId(1)),
            payload: RbayPayload::Search(search_state()),
            origin: NodeAddr(3),
        },
        hops: 2,
        scope: Some(SiteId(1)),
    };
    golden(m, "00efbeadde000000000000000000000000057700000000000000000000000000000001010189808080300302010105546f6b796f0103475055000001010f4350555f7574696c697a6174696f6e00010270770204100000000000000000000000000000040101010000000000002940c8100000000000000000000000000000c801010003020101");
}
