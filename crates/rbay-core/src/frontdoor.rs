//! The gateway query front door: a read-path accelerator in front of the
//! overlay walk (ROADMAP item 2, modeled on Dynafed's volatile namespace).
//!
//! Four mechanisms, all host-resident so the same code runs over the
//! simulator and the TCP cluster:
//!
//! 1. **Normalized-query result cache** — [`query_key`] canonicalizes a
//!    parsed [`Query`] (predicate order, literal spelling, FROM-clause
//!    case/duplicates) into a stable key; results are cached with a
//!    per-entry TTL under an LRU capacity bound, and purged by
//!    invalidation multicasts when any referenced attribute changes.
//! 2. **Single-flight coalescing** — concurrent identical queries attach
//!    to the one in-flight overlay walk (the *leader*) instead of
//!    launching their own; completion fans the result out to everyone.
//! 3. **Admission control** — a bounded count of in-flight leader walks;
//!    beyond it the gateway sheds with a retry-after hint instead of
//!    collapsing under a query storm.
//! 4. **Geo-aware redirection** — [`lowest_rtt_site`] points a client at
//!    the frontdoor site with the smallest RTT (the Table II matrix in
//!    `simnet::topology` supplies real inter-region numbers).
//!
//! Cached results are served without re-running the reserve/commit
//! protocol: the front door is a *read* path (inventory lookups,
//! dashboards, repeated availability checks), not a substitute for the
//! five-step acquisition protocol.

use crate::types::{Candidate, QueryId};
use rbay_query::{AttrValue, FromClause, Query};
use simnet::{SimDuration, SimTime, SiteId};
use std::collections::BTreeMap;

/// Field separator inside cache keys: never appears in parsed attribute
/// names, operators, or canonical literals' *kind prefixes*, so composed
/// keys cannot collide across field boundaries.
const SEP: char = '\u{1f}';

/// Canonical, collision-resistant form of one literal. The kind prefix
/// keeps `true` (Bool) distinct from `"true"` (Str) and `10` (Num) distinct
/// from `"10"` (Str); [`AttrValue::canonical`] already renders `10.0` and
/// `10` identically, which is exactly the equivalence the cache wants.
fn value_key(v: &AttrValue) -> String {
    match v {
        AttrValue::Bool(b) => format!("b:{b}"),
        AttrValue::Num(_) => format!("n:{}", v.canonical()),
        AttrValue::Str(s) => format!("s:{s}"),
    }
}

/// Builds the normalized cache key of a parsed query.
///
/// Two queries get the same key iff they are semantically identical:
/// `SELECT k`, the FROM site set (case-insensitive, deduplicated, order
/// ignored), the predicate *set* (order ignored, duplicates collapsed,
/// literals compared by canonical form), and the GROUPBY clause all match.
/// Whitespace and keyword case never reach this function — the parser
/// already normalized them away.
pub fn query_key(q: &Query) -> String {
    let mut key = String::with_capacity(64);
    key.push_str(&q.k.to_string());
    key.push(SEP);
    match &q.from {
        FromClause::AllSites => key.push('*'),
        FromClause::Sites(names) => {
            let mut sites: Vec<String> = names.iter().map(|s| s.to_ascii_lowercase()).collect();
            sites.sort();
            sites.dedup();
            key.push_str(&sites.join(","));
        }
    }
    key.push(SEP);
    let mut preds: Vec<String> = q
        .predicates
        .iter()
        .map(|p| {
            format!(
                "{}{SEP}{}{SEP}{}",
                p.attr,
                p.op.as_str(),
                value_key(&p.value)
            )
        })
        .collect();
    preds.sort();
    preds.dedup();
    key.push_str(&preds.join("&"));
    key.push(SEP);
    if let Some((attr, dir)) = &q.order_by {
        key.push_str(attr);
        key.push(SEP);
        key.push_str(match dir {
            rbay_query::SortDir::Asc => "asc",
            rbay_query::SortDir::Desc => "desc",
        });
    }
    key
}

/// The attributes a query's answer depends on (predicates plus the GROUPBY
/// key) — an update to any of them must invalidate the cached result.
pub fn query_attrs(q: &Query) -> Vec<String> {
    let mut attrs: Vec<String> = q.predicates.iter().map(|p| p.attr.clone()).collect();
    if let Some((attr, _)) = &q.order_by {
        attrs.push(attr.clone());
    }
    attrs.sort();
    attrs.dedup();
    attrs
}

/// Picks the candidate site with the lowest RTT from `client` (ties break
/// toward the lower site id, so the choice is deterministic). Returns
/// `None` when `candidates` is empty.
pub fn lowest_rtt_site(
    client: SiteId,
    candidates: &[SiteId],
    rtt_ms: impl Fn(SiteId, SiteId) -> f64,
) -> Option<SiteId> {
    candidates.iter().copied().fold(None, |best, s| match best {
        None => Some(s),
        Some(b) => {
            let (rb, rs) = (rtt_ms(client, b), rtt_ms(client, s));
            if rs < rb || (rs == rb && s.0 < b.0) {
                Some(s)
            } else {
                Some(b)
            }
        }
    })
}

/// Tunables of one gateway's front door.
#[derive(Debug, Clone)]
pub struct FrontdoorConfig {
    /// How long a cached result stays servable (absent an invalidation).
    pub cache_ttl: SimDuration,
    /// Maximum cached entries; beyond it the least-recently-used entry is
    /// evicted.
    pub cache_capacity: usize,
    /// Maximum concurrent leader walks; beyond it new *distinct* queries
    /// are shed (hits and coalesced attachments are always admitted — they
    /// cost no overlay traffic).
    pub max_pending: usize,
    /// The retry-after hint returned with a shed response.
    pub retry_after: SimDuration,
}

impl Default for FrontdoorConfig {
    fn default() -> Self {
        FrontdoorConfig {
            cache_ttl: SimDuration::from_millis(10_000),
            cache_capacity: 1024,
            max_pending: 256,
            retry_after: SimDuration::from_millis(100),
        }
    }
}

/// The front door's one set of counters: plain values, so the harnesses
/// and the TCP daemon (through `ProcStatus`) read them with the obs plane
/// off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontdoorStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that missed and launched a leader walk.
    pub misses: u64,
    /// Queries attached to an already-in-flight identical walk.
    pub coalesced: u64,
    /// Queries refused by admission control.
    pub shed: u64,
    /// Cache entries purged by attribute invalidations.
    pub invalidations: u64,
    /// Cache entries evicted by the LRU capacity bound.
    pub evictions: u64,
}

impl FrontdoorStats {
    /// Element-wise sum (for aggregating across a process's members).
    pub fn merge(&mut self, other: &FrontdoorStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.coalesced += other.coalesced;
        self.shed += other.shed;
        self.invalidations += other.invalidations;
        self.evictions += other.evictions;
    }
}

/// The front door's answer to one client query (what
/// `RbayHost::frontdoor_query` returns).
#[derive(Debug, Clone)]
pub enum FrontdoorResponse {
    /// Served from the cache — no overlay traffic.
    Cached {
        /// The cached candidate set.
        result: Vec<Candidate>,
        /// Whether the cached walk found its `k` nodes.
        satisfied: bool,
    },
    /// An overlay walk will answer: poll query `id` on the gateway. When
    /// `coalesced`, the walk was already in flight for an identical query.
    Pending {
        /// The (possibly shared) walk to wait on.
        id: QueryId,
        /// Whether this query attached to an existing walk.
        coalesced: bool,
    },
    /// Refused by admission control; retry after the hint.
    Shed {
        /// Suggested client backoff.
        retry_after: SimDuration,
    },
}

/// What the front door decided for one incoming query.
#[derive(Debug, Clone)]
pub enum FrontdoorDecision {
    /// Served from the cache.
    Hit {
        /// The cached candidate set.
        result: Vec<Candidate>,
        /// Whether the cached walk found its `k` nodes.
        satisfied: bool,
    },
    /// Attached to the in-flight walk `leader`; poll its record.
    Coalesce {
        /// The leader query to wait on.
        leader: QueryId,
    },
    /// Admitted as a new leader walk — the caller must issue the query and
    /// register it with [`Frontdoor::lead`].
    Admit,
    /// Refused: too many walks in flight. Retry after the hint.
    Shed {
        /// Suggested client backoff.
        retry_after: SimDuration,
    },
}

#[derive(Debug, Clone)]
struct CacheEntry {
    result: Vec<Candidate>,
    satisfied: bool,
    expires_at: SimTime,
    /// Attributes the result depends on (invalidation targets).
    attrs: Vec<String>,
    /// Last-touch tick for LRU eviction.
    touched: u64,
}

/// Per-gateway front door state: result cache, single-flight table, and
/// admission counters. Time is passed in explicitly ([`SimTime`] is virtual
/// time in the simulator and milliseconds-since-start in the daemon), so
/// the struct itself is transport-agnostic.
#[derive(Debug, Default)]
pub struct Frontdoor {
    /// Tunables.
    pub cfg: FrontdoorConfig,
    cache: BTreeMap<String, CacheEntry>,
    /// key → leader walk currently in flight for it.
    inflight: BTreeMap<String, QueryId>,
    /// leader walk → its key (reverse index for completion).
    leaders: BTreeMap<QueryId, String>,
    lru_clock: u64,
    /// What the front door decided, counted.
    pub stats: FrontdoorStats,
}

impl Frontdoor {
    /// Creates an empty front door.
    pub fn new(cfg: FrontdoorConfig) -> Self {
        Frontdoor {
            cfg,
            cache: BTreeMap::new(),
            inflight: BTreeMap::new(),
            leaders: BTreeMap::new(),
            lru_clock: 0,
            stats: FrontdoorStats::default(),
        }
    }

    /// Routes one incoming query (already canonicalized to `key`): cache
    /// hit, coalesce onto an in-flight walk, admit a new walk, or shed.
    pub fn begin(&mut self, key: &str, now: SimTime) -> FrontdoorDecision {
        self.lru_clock += 1;
        if let Some(entry) = self.cache.get_mut(key) {
            if entry.expires_at > now {
                entry.touched = self.lru_clock;
                self.stats.hits += 1;
                return FrontdoorDecision::Hit {
                    result: entry.result.clone(),
                    satisfied: entry.satisfied,
                };
            }
            self.cache.remove(key);
        }
        if let Some(leader) = self.inflight.get(key) {
            self.stats.coalesced += 1;
            return FrontdoorDecision::Coalesce { leader: *leader };
        }
        if self.leaders.len() >= self.cfg.max_pending {
            self.stats.shed += 1;
            return FrontdoorDecision::Shed {
                retry_after: self.cfg.retry_after,
            };
        }
        self.stats.misses += 1;
        FrontdoorDecision::Admit
    }

    /// Registers `id` as the leader walk for `key`. Call before issuing
    /// the query: a query with no anchors completes synchronously inside
    /// `issue_query`, and the completion hook must already find the leader.
    pub fn lead(&mut self, key: String, id: QueryId) {
        self.inflight.insert(key.clone(), id);
        self.leaders.insert(id, key);
    }

    /// Completion hook: if `id` was a leader walk, stores its result in
    /// the cache (evicting the LRU entry at capacity) and clears the
    /// single-flight slot.
    pub fn complete(
        &mut self,
        id: QueryId,
        result: Vec<Candidate>,
        satisfied: bool,
        attrs: Vec<String>,
        now: SimTime,
    ) {
        let Some(key) = self.leaders.remove(&id) else {
            return;
        };
        self.inflight.remove(&key);
        if self.cfg.cache_capacity == 0 {
            return;
        }
        while self.cache.len() >= self.cfg.cache_capacity {
            let lru = self
                .cache
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k.clone());
            match lru {
                Some(k) => {
                    self.cache.remove(&k);
                    self.stats.evictions += 1;
                }
                None => break,
            }
        }
        self.lru_clock += 1;
        self.cache.insert(
            key,
            CacheEntry {
                result,
                satisfied,
                expires_at: now + self.cfg.cache_ttl,
                attrs,
                touched: self.lru_clock,
            },
        );
    }

    /// Purges every cached entry whose result depends on `attr`.
    pub fn invalidate_attr(&mut self, attr: &str) {
        let before = self.cache.len();
        self.cache.retain(|_, e| !e.attrs.iter().any(|a| a == attr));
        self.stats.invalidations += (before - self.cache.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastry::NodeId;
    use rbay_query::parse_query;
    use simnet::NodeAddr;

    fn key_of(src: &str) -> String {
        query_key(&parse_query(src).unwrap())
    }

    fn cand(n: u32) -> Candidate {
        Candidate {
            id: NodeId(n as u128),
            addr: NodeAddr(n),
            site: SiteId(0),
            sort_key: None,
        }
    }

    fn fd(capacity: usize, max_pending: usize) -> Frontdoor {
        Frontdoor::new(FrontdoorConfig {
            cache_ttl: SimDuration::from_millis(1_000),
            cache_capacity: capacity,
            max_pending,
            retry_after: SimDuration::from_millis(50),
        })
    }

    #[test]
    fn key_ignores_predicate_order_whitespace_and_literal_spelling() {
        let a = key_of("SELECT 2 FROM * WHERE GPU = true AND CPU_utilization < 10.0");
        let b = key_of("select   2 from * where CPU_utilization < 10 and GPU = true ;");
        assert_eq!(a, b);
    }

    #[test]
    fn key_separates_value_kinds_and_site_case() {
        assert_ne!(
            key_of("SELECT 1 FROM * WHERE a = true"),
            key_of("SELECT 1 FROM * WHERE a = \"true\"")
        );
        assert_ne!(
            key_of("SELECT 1 FROM * WHERE a = 10"),
            key_of("SELECT 1 FROM * WHERE a = \"10\"")
        );
        assert_eq!(
            key_of("SELECT 1 FROM \"Tokyo\", \"tokyo\", \"Sydney\" WHERE a = 1"),
            key_of("SELECT 1 FROM \"sydney\", \"TOKYO\" WHERE a = 1")
        );
        assert_ne!(
            key_of("SELECT 1 FROM * WHERE a = 1"),
            key_of("SELECT 2 FROM * WHERE a = 1"),
            "k is part of the key"
        );
    }

    #[test]
    fn cache_hits_until_ttl_expires() {
        let mut fd = fd(8, 8);
        let t0 = SimTime::from_millis(0);
        assert!(matches!(fd.begin("k", t0), FrontdoorDecision::Admit));
        fd.lead("k".into(), QueryId(1));
        fd.complete(QueryId(1), vec![cand(1)], true, vec!["a".into()], t0);
        match fd.begin("k", SimTime::from_millis(999)) {
            FrontdoorDecision::Hit { result, satisfied } => {
                assert!(satisfied);
                assert_eq!(result.len(), 1);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(
            matches!(
                fd.begin("k", SimTime::from_millis(1_000)),
                FrontdoorDecision::Admit
            ),
            "entry expired at ttl"
        );
        assert_eq!(fd.stats.hits, 1);
        assert_eq!(fd.stats.misses, 2);
    }

    #[test]
    fn single_flight_coalesces_and_fan_out_clears() {
        let mut fd = fd(8, 8);
        let t0 = SimTime::from_millis(0);
        assert!(matches!(fd.begin("k", t0), FrontdoorDecision::Admit));
        fd.lead("k".into(), QueryId(7));
        match fd.begin("k", t0) {
            FrontdoorDecision::Coalesce { leader } => assert_eq!(leader, QueryId(7)),
            other => panic!("expected coalesce, got {other:?}"),
        }
        assert_eq!(fd.leaders.len(), 1);
        fd.complete(QueryId(7), vec![], false, vec![], t0);
        assert!(fd.leaders.is_empty());
        assert!(
            matches!(fd.begin("k", t0), FrontdoorDecision::Hit { .. }),
            "negative results cache too"
        );
    }

    #[test]
    fn admission_sheds_beyond_max_pending() {
        let mut fd = fd(8, 1);
        let t0 = SimTime::from_millis(0);
        assert!(matches!(fd.begin("a", t0), FrontdoorDecision::Admit));
        fd.lead("a".into(), QueryId(1));
        match fd.begin("b", t0) {
            FrontdoorDecision::Shed { retry_after } => {
                assert_eq!(retry_after, SimDuration::from_millis(50));
            }
            other => panic!("expected shed, got {other:?}"),
        }
        // Coalescing onto the existing walk is still admitted.
        assert!(matches!(
            fd.begin("a", t0),
            FrontdoorDecision::Coalesce { .. }
        ));
        fd.complete(QueryId(1), vec![], false, vec![], t0);
        assert!(matches!(fd.begin("b", t0), FrontdoorDecision::Admit));
        assert_eq!(fd.stats.shed, 1);
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut fd = fd(2, 8);
        let t0 = SimTime::from_millis(0);
        for (i, k) in ["a", "b"].iter().enumerate() {
            assert!(matches!(fd.begin(k, t0), FrontdoorDecision::Admit));
            fd.lead((*k).into(), QueryId(i as u64));
            fd.complete(QueryId(i as u64), vec![], true, vec![], t0);
        }
        // Touch "a" so "b" becomes the LRU entry.
        assert!(matches!(fd.begin("a", t0), FrontdoorDecision::Hit { .. }));
        assert!(matches!(fd.begin("c", t0), FrontdoorDecision::Admit));
        fd.lead("c".into(), QueryId(9));
        fd.complete(QueryId(9), vec![], true, vec![], t0);
        assert_eq!(fd.cache.len(), 2);
        assert!(matches!(fd.begin("a", t0), FrontdoorDecision::Hit { .. }));
        assert!(
            matches!(fd.begin("b", t0), FrontdoorDecision::Admit),
            "b was evicted"
        );
        assert_eq!(fd.stats.evictions, 1);
    }

    #[test]
    fn invalidation_purges_only_dependent_entries() {
        let mut fd = fd(8, 8);
        let t0 = SimTime::from_millis(0);
        fd.begin("gpu", t0);
        fd.lead("gpu".into(), QueryId(1));
        fd.complete(QueryId(1), vec![cand(1)], true, vec!["GPU".into()], t0);
        fd.begin("cpu", t0);
        fd.lead("cpu".into(), QueryId(2));
        fd.complete(QueryId(2), vec![cand(2)], true, vec!["CPU".into()], t0);
        fd.invalidate_attr("GPU");
        assert!(matches!(fd.begin("gpu", t0), FrontdoorDecision::Admit));
        assert!(matches!(fd.begin("cpu", t0), FrontdoorDecision::Hit { .. }));
        assert_eq!(fd.stats.invalidations, 1);
    }

    #[test]
    fn query_attrs_cover_predicates_and_groupby() {
        let q = parse_query(
            "SELECT 1 FROM * WHERE GPU = true AND CPU_utilization < 50 GROUPBY RAM ASC",
        )
        .unwrap();
        assert_eq!(query_attrs(&q), vec!["CPU_utilization", "GPU", "RAM"]);
    }

    #[test]
    fn lowest_rtt_uses_the_matrix() {
        let m = simnet::topology::table2_rtt_matrix();
        let rtt = |a: SiteId, b: SiteId| m[a.0 as usize][b.0 as usize];
        let all: Vec<SiteId> = (0..8).map(SiteId).collect();
        // A client is always closest to its own site.
        for s in 0..8u16 {
            assert_eq!(lowest_rtt_site(SiteId(s), &all, rtt), Some(SiteId(s)));
        }
        // Tokyo (5) with its own site unavailable goes to the nearest
        // remaining region, not an arbitrary one.
        let others: Vec<SiteId> = (0..8).map(SiteId).filter(|s| s.0 != 5).collect();
        let picked = lowest_rtt_site(SiteId(5), &others, rtt).unwrap();
        for s in &others {
            assert!(rtt(SiteId(5), picked) <= rtt(SiteId(5), *s));
        }
        assert_eq!(lowest_rtt_site(SiteId(0), &[], rtt), None);
    }
}
