//! End-to-end front-door tests over the full simulated stack: cache hits,
//! single-flight coalescing, admission shedding, geo redirection, and —
//! the acceptance criterion — no stale result after an invalidation
//! multicast propagates.

use rbay_core::frontdoor::FrontdoorConfig;
use rbay_core::{Federation, FrontdoorOutcome, RbayConfig};
use rbay_query::AttrValue;
use simnet::{NodeAddr, SimDuration, SiteId, Topology};

fn fd_config() -> FrontdoorConfig {
    FrontdoorConfig {
        cache_ttl: SimDuration::from_millis(60_000),
        cache_capacity: 64,
        max_pending: 8,
        retry_after: SimDuration::from_millis(100),
    }
}

/// A single-site federation with GPU resources on the given nodes and the
/// front door live on the site's gateways.
fn gpu_federation(holders: &[u32], seed: u64) -> Federation {
    let cfg = RbayConfig {
        frontdoor_invalidation: true,
        ..RbayConfig::default()
    };
    let mut fed = Federation::with_config(Topology::single_site(40, 0.5), seed, cfg);
    for h in holders {
        fed.post_resource(NodeAddr(*h), "GPU", AttrValue::Bool(true));
    }
    fed.settle();
    fed.run_maintenance(4, SimDuration::from_millis(200));
    fed.enable_frontdoor(fd_config());
    fed.settle();
    fed.run_maintenance(2, SimDuration::from_millis(200));
    fed.settle();
    fed
}

#[test]
fn second_identical_query_is_a_cache_hit() {
    let mut fed = gpu_federation(&[10, 20], 1);
    let zql = "SELECT 2 FROM * WHERE GPU = true";
    let first = fed.frontdoor_query(NodeAddr(5), zql, None).unwrap();
    let FrontdoorOutcome::Pending {
        gateway,
        id,
        coalesced,
    } = first
    else {
        panic!("cold cache must walk: {first:?}");
    };
    assert!(!coalesced);
    fed.settle();
    let rec = fed.query_record(gateway, id).unwrap();
    assert!(rec.satisfied, "walk failed: {rec:?}");

    // Same question, different client, sloppier spelling: cache hit.
    let again = fed
        .frontdoor_query(NodeAddr(17), "select 2 from * where GPU = true ;", None)
        .unwrap();
    match again {
        FrontdoorOutcome::Cached { result, satisfied } => {
            assert!(satisfied);
            let mut addrs: Vec<u32> = result.iter().map(|c| c.addr.0).collect();
            addrs.sort();
            assert_eq!(addrs, vec![10, 20]);
        }
        other => panic!("expected cached, got {other:?}"),
    }
    let stats = fed.frontdoor_stats(gateway).unwrap();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert!(fed.recorder().snapshot().counts.is_empty(), "obs disabled");
}

#[test]
fn concurrent_identical_queries_coalesce_onto_one_walk() {
    let mut fed = gpu_federation(&[10, 20], 2);
    let zql = "SELECT 1 FROM * WHERE GPU = true";
    let first = fed.frontdoor_query(NodeAddr(5), zql, None).unwrap();
    let FrontdoorOutcome::Pending {
        gateway,
        id,
        coalesced: false,
    } = first
    else {
        panic!("expected a fresh walk: {first:?}");
    };
    // Before the walk completes, two more clients ask the same question.
    for client in [6u32, 7] {
        let next = fed.frontdoor_query(NodeAddr(client), zql, None).unwrap();
        match next {
            FrontdoorOutcome::Pending {
                gateway: g,
                id: shared,
                coalesced,
            } => {
                assert!(coalesced, "identical in-flight query must coalesce");
                assert_eq!(g, gateway);
                assert_eq!(shared, id, "waiters share the leader walk");
            }
            other => panic!("expected coalesce, got {other:?}"),
        }
    }
    fed.settle();
    let rec = fed.query_record(gateway, id).unwrap();
    assert!(rec.satisfied);
    let stats = fed.frontdoor_stats(gateway).unwrap();
    assert_eq!(stats.misses, 1, "one walk served three clients");
    assert_eq!(stats.coalesced, 2);
}

#[test]
fn overload_sheds_with_retry_after_and_recovers() {
    let cfg = RbayConfig {
        frontdoor_invalidation: true,
        ..RbayConfig::default()
    };
    let mut fed = Federation::with_config(Topology::single_site(40, 0.5), 3, cfg);
    for i in 0..8u32 {
        fed.post_resource(NodeAddr(i), &format!("res{i}"), AttrValue::Bool(true));
    }
    fed.settle();
    fed.run_maintenance(4, SimDuration::from_millis(200));
    fed.enable_frontdoor(FrontdoorConfig {
        max_pending: 2,
        ..fd_config()
    });
    fed.settle();

    // Burst of distinct queries without letting any complete: the first
    // two are admitted, the rest shed.
    let mut shed = 0;
    for i in 0..6u32 {
        let out = fed
            .frontdoor_query(
                NodeAddr(30),
                &format!("SELECT 1 FROM * WHERE res{i} = true"),
                None,
            )
            .unwrap();
        match out {
            FrontdoorOutcome::Pending { .. } => {}
            FrontdoorOutcome::Shed { retry_after } => {
                assert_eq!(retry_after, SimDuration::from_millis(100));
                shed += 1;
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert_eq!(shed, 4, "max_pending=2 admits two of six");
    // After the in-flight walks drain, admission reopens.
    fed.settle();
    let out = fed
        .frontdoor_query(NodeAddr(30), "SELECT 1 FROM * WHERE res5 = true", None)
        .unwrap();
    assert!(
        matches!(out, FrontdoorOutcome::Pending { .. }),
        "admission must recover after completion: {out:?}"
    );
}

/// The acceptance criterion: once an attribute update propagates, a cached
/// result that depended on it is never served again.
#[test]
fn no_stale_result_after_invalidation_propagates() {
    let mut fed = gpu_federation(&[10, 20], 4);
    let zql = "SELECT 2 FROM * WHERE GPU = true";
    let first = fed.frontdoor_query(NodeAddr(5), zql, None).unwrap();
    let FrontdoorOutcome::Pending { gateway, id, .. } = first else {
        panic!("cold cache must walk");
    };
    fed.settle();
    assert!(fed.query_record(gateway, id).unwrap().satisfied);
    // Prime the cache and prove it serves.
    assert!(matches!(
        fed.frontdoor_query(NodeAddr(6), zql, None).unwrap(),
        FrontdoorOutcome::Cached {
            satisfied: true,
            ..
        }
    ));

    // Node 20's GPU goes away. The update multicasts an invalidation over
    // the `__frontdoor` tree; settle lets it propagate.
    fed.update_attr(NodeAddr(20), "GPU", AttrValue::Bool(false));
    fed.settle();
    let stats = fed.frontdoor_stats(gateway).unwrap();
    assert!(stats.invalidations >= 1, "invalidation reached the gateway");

    // The same query must now re-walk and see the shrunken inventory —
    // a stale cache would still claim two GPUs.
    let after = fed.frontdoor_query(NodeAddr(7), zql, None).unwrap();
    let FrontdoorOutcome::Pending {
        gateway: g2,
        id: id2,
        coalesced: false,
    } = after
    else {
        panic!("stale read: cache served after invalidation: {after:?}");
    };
    fed.settle();
    let rec = fed.query_record(g2, id2).unwrap();
    assert!(!rec.satisfied, "only one GPU remains, k=2 must fail");
    assert!(rec.result.len() < 2, "stale inventory leaked into result");
}

#[test]
fn redirection_targets_the_lowest_rtt_site() {
    let cfg = RbayConfig {
        frontdoor_invalidation: true,
        ..RbayConfig::default()
    };
    let mut fed = Federation::with_config(Topology::aws_ec2_8_sites(6), 5, cfg);
    // Every client is redirected to its own site (the matrix diagonal is
    // always the minimum in Table II).
    let n = fed.sim().topology().node_count() as u32;
    for client in (0..n).step_by(7) {
        let home = fed.sim().topology().site_of(NodeAddr(client));
        assert_eq!(fed.frontdoor_site_for(NodeAddr(client)), home);
    }
    // And the frontdoor gateway used is one of that site's gateways.
    fed.enable_frontdoor(fd_config());
    fed.settle();
    fed.run_maintenance(2, SimDuration::from_millis(200));
    fed.settle();
    fed.post_resource(NodeAddr(1), "GPU", AttrValue::Bool(true));
    fed.settle();
    let out = fed
        .frontdoor_query(NodeAddr(2), "SELECT 1 FROM * WHERE GPU = true", None)
        .unwrap();
    let FrontdoorOutcome::Pending { gateway, .. } = out else {
        panic!("cold cache must walk");
    };
    let gw_site = fed.sim().topology().site_of(gateway);
    assert_eq!(gw_site, SiteId(0), "client 2 lives in site 0");
}
