//! Topic naming, aggregate values, and Scribe wire messages.

use pastry::{NodeId, NodeInfo};
use simnet::{NodeAddr, SiteId, ThinVec};

/// Identifies a Scribe tree: the hash of the tree's textual name
/// concatenated with its creator's name (paper §II.B.2). The node whose
/// NodeId is numerically closest to the TopicId is the tree's rendezvous
/// root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicId(pub NodeId);

impl TopicId {
    /// `TopicId = SHA-1(name ++ "@" ++ creator)`.
    ///
    /// ```
    /// use scribe::TopicId;
    /// let a = TopicId::new("GPU", "rbay");
    /// assert_eq!(a, TopicId::new("GPU", "rbay"));
    /// assert_ne!(a, TopicId::new("GPU", "grace"));
    /// ```
    pub fn new(name: &str, creator: &str) -> Self {
        let mut buf = Vec::with_capacity(name.len() + creator.len() + 1);
        buf.extend_from_slice(name.as_bytes());
        buf.push(b'@');
        buf.extend_from_slice(creator.as_bytes());
        TopicId(NodeId::hash_of(&buf))
    }

    /// A site-scoped variant of the topic: the same logical tree name but
    /// hashed together with the site, so every site gets its own rendezvous
    /// point (used by RBAY's administrative isolation and hybrid naming).
    pub fn scoped(name: &str, creator: &str, site: SiteId) -> Self {
        TopicId::new(&format!("{name}#site{}", site.0), creator)
    }

    /// The underlying ring key.
    pub fn key(self) -> NodeId {
        self.0
    }
}

impl std::fmt::Display for TopicId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "topic:{}", self.0)
    }
}

/// A composable aggregate carried up the tree (paper §II.B.3): any function
/// with a hierarchical-computation property — here count, sum, min, max,
/// mean, and element-wise composites of those — can be rolled up through
/// intermediate nodes.
///
/// ```
/// use scribe::AggValue;
/// // A subtree of 3 members with mean utilization 20 merges with a
/// // sibling subtree of 1 member at utilization 60:
/// let mut a = AggValue::Multi(vec![
///     AggValue::Count(3),
///     AggValue::Mean { sum: 60.0, count: 3 },
/// ]);
/// a.merge(&AggValue::Multi(vec![
///     AggValue::Count(1),
///     AggValue::Mean { sum: 60.0, count: 1 },
/// ]));
/// assert_eq!(a.as_count(), Some(4));
/// assert_eq!(a.component(1).unwrap().as_f64(), 30.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum AggValue {
    /// Number of contributing members (tree size when every member
    /// contributes `Count(1)`).
    Count(u64),
    /// Sum of contributions.
    Sum(f64),
    /// Minimum contribution.
    Min(f64),
    /// Maximum contribution.
    Max(f64),
    /// Mean of contributions, kept as (sum, count) so it stays composable.
    Mean {
        /// Sum of contributions.
        sum: f64,
        /// Number of contributions.
        count: u64,
    },
    /// Several aggregates rolled up together, merged element-wise — RBAY
    /// trees track both their size and attribute statistics in one pass
    /// ("the size of the tree, the average value of all nodes'
    /// attributes", §II.B.3).
    Multi(Vec<AggValue>),
}

impl AggValue {
    /// Merges `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the two values are different aggregate kinds — trees are
    /// configured with a single kind, so a mismatch is a protocol bug.
    pub fn merge(&mut self, other: &AggValue) {
        match (self, other) {
            (AggValue::Count(a), AggValue::Count(b)) => *a += b,
            (AggValue::Sum(a), AggValue::Sum(b)) => *a += b,
            (AggValue::Min(a), AggValue::Min(b)) => *a = a.min(*b),
            (AggValue::Max(a), AggValue::Max(b)) => *a = a.max(*b),
            (AggValue::Mean { sum: s1, count: c1 }, AggValue::Mean { sum: s2, count: c2 }) => {
                *s1 += s2;
                *c1 += c2;
            }
            (AggValue::Multi(xs), AggValue::Multi(ys)) => {
                assert_eq!(xs.len(), ys.len(), "multi-aggregate arity mismatch");
                for (x, y) in xs.iter_mut().zip(ys) {
                    x.merge(y);
                }
            }
            (a, b) => panic!("cannot merge aggregate kinds {a:?} and {b:?}"),
        }
    }

    /// Merges a sequence of values, returning `None` for an empty sequence.
    pub fn merge_all<'a>(vals: impl IntoIterator<Item = &'a AggValue>) -> Option<AggValue> {
        let mut it = vals.into_iter();
        let mut acc = it.next()?.clone();
        for v in it {
            acc.merge(v);
        }
        Some(acc)
    }

    /// The tree-size reading of this aggregate: a count, or the first
    /// count inside a multi-aggregate.
    pub fn as_count(&self) -> Option<u64> {
        match self {
            AggValue::Count(n) => Some(*n),
            AggValue::Multi(xs) => xs.iter().find_map(|x| x.as_count()),
            _ => None,
        }
    }

    /// The `i`-th component of a multi-aggregate (or self for `i == 0` on
    /// plain aggregates).
    pub fn component(&self, i: usize) -> Option<&AggValue> {
        match self {
            AggValue::Multi(xs) => xs.get(i),
            other if i == 0 => Some(other),
            _ => None,
        }
    }

    /// The numeric reading: count, sum, min, max, or the resolved mean.
    pub fn as_f64(&self) -> f64 {
        match self {
            AggValue::Count(n) => *n as f64,
            AggValue::Sum(v) | AggValue::Min(v) | AggValue::Max(v) => *v,
            AggValue::Mean { sum, count } => {
                if *count == 0 {
                    0.0
                } else {
                    sum / *count as f64
                }
            }
            AggValue::Multi(xs) => xs.first().map(|x| x.as_f64()).unwrap_or(0.0),
        }
    }
}

/// The decision returned by a host when an anycast visits its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visit {
    /// Keep walking the tree.
    Continue,
    /// The anycast is satisfied; return the payload to its origin.
    Stop,
}

/// Scribe wire messages; `P` is the embedding application's payload type.
///
/// Messages marked *(routed)* travel inside `PastryMsg::Route` toward the
/// topic's rendezvous key; the rest travel as `PastryMsg::Direct` between
/// specific nodes.
#[derive(Debug, Clone)]
pub enum ScribeMsg<P> {
    /// *(routed)* A subscription heading for the rendezvous root. Each
    /// intermediate node grafts the child and re-issues the join for itself
    /// — the tree is the union of the join paths.
    Join {
        /// The tree being joined.
        topic: TopicId,
        /// Site scope for isolation-scoped trees.
        scope: Option<SiteId>,
        /// The node to graft as a child of the interceptor.
        child: NodeInfo,
    },
    /// The interceptor/root tells the child it is now grafted.
    JoinAck {
        /// The tree joined.
        topic: TopicId,
    },
    /// A child detaches from its parent.
    Leave {
        /// The tree being left.
        topic: TopicId,
        /// The departing child.
        child: NodeAddr,
    },
    /// *(routed)* Multicast request heading for the root, which disseminates
    /// it down the tree.
    MulticastReq {
        /// Target tree.
        topic: TopicId,
        /// Scope of the tree.
        scope: Option<SiteId>,
        /// Application payload.
        payload: P,
    },
    /// Dissemination hop of a multicast, parent to child.
    MulticastData {
        /// Target tree.
        topic: TopicId,
        /// Application payload.
        payload: P,
    },
    /// *(routed)* Anycast entering the tree; the first member on the route
    /// takes over with a depth-first walk.
    Anycast {
        /// Target tree.
        topic: TopicId,
        /// Scope of the tree.
        scope: Option<SiteId>,
        /// Application payload (mutated by visits).
        payload: P,
        /// Node awaiting the result.
        origin: NodeAddr,
    },
    /// One DFS step of an anycast walk.
    AnycastStep {
        /// Target tree.
        topic: TopicId,
        /// Application payload (mutated by visits).
        payload: P,
        /// Node awaiting the result.
        origin: NodeAddr,
        /// Nodes already visited.
        visited: ThinVec<NodeAddr>,
        /// DFS stack of nodes still to visit.
        stack: ThinVec<NodeAddr>,
    },
    /// Final answer of an anycast, sent to its origin.
    AnycastResult {
        /// Target tree.
        topic: TopicId,
        /// Application payload after all visits.
        payload: P,
        /// Whether some visit accepted (returned [`Visit::Stop`]).
        satisfied: bool,
    },
    /// *(routed)* Asks the tree root to fill in its aggregate (e.g. tree
    /// size) and reply to `origin` (query protocol step 1-2, Fig. 7).
    ProbeRoot {
        /// Target tree.
        topic: TopicId,
        /// Scope of the tree.
        scope: Option<SiteId>,
        /// Application payload for the host to annotate.
        payload: P,
        /// Node awaiting the reply.
        origin: NodeAddr,
    },
    /// The root's answer to a [`ScribeMsg::ProbeRoot`].
    ProbeReply {
        /// Target tree.
        topic: TopicId,
        /// Annotated payload.
        payload: P,
        /// The root's current aggregate, if the tree exists (boxed: a
        /// multi-aggregate would widen every message).
        agg: Option<Box<AggValue>>,
        /// Whether the probed tree exists at the rendezvous node.
        exists: bool,
    },
    /// Periodic aggregate roll-up, child to parent.
    AggUpdate {
        /// Target tree.
        topic: TopicId,
        /// The child's merged subtree aggregate.
        value: AggValue,
    },
    /// NACK from a would-be parent that does not list the sender among its
    /// children (e.g. after a false-positive failure declaration dropped
    /// it). The orphan clears its stale parent pointer and re-joins.
    NotChild {
        /// The tree the sender is no longer attached to.
        topic: TopicId,
    },
    /// An application message between hosts, outside any tree.
    AppDirect(P),
    /// Root → leaf-set neighbour: a warm mirror of the root's rendezvous
    /// state (child set, merged aggregate, subscriber summary). Pushed
    /// every aggregate tick to the k leaf-set members nearest the topic
    /// key, so a successor root promotes from the cache instead of
    /// rebuilding the tree from scratch when the root dies.
    ReplicaSync {
        /// The mirrored tree.
        topic: TopicId,
        /// Scope of the tree.
        scope: Option<SiteId>,
        /// The root's children at push time.
        children: Vec<NodeAddr>,
        /// The root's merged aggregate at push time.
        agg: Option<AggValue>,
        /// Subscriber summary (the aggregate's count reading).
        subscribers: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_ids_are_stable_and_creator_sensitive() {
        assert_eq!(TopicId::new("GPU", "a"), TopicId::new("GPU", "a"));
        assert_ne!(TopicId::new("GPU", "a"), TopicId::new("GPU", "b"));
        assert_ne!(TopicId::new("GPU", "a"), TopicId::new("CPU", "a"));
    }

    #[test]
    fn scoped_topics_differ_per_site() {
        let a = TopicId::scoped("GPU", "rbay", SiteId(0));
        let b = TopicId::scoped("GPU", "rbay", SiteId(1));
        assert_ne!(a, b);
        assert_ne!(a, TopicId::new("GPU", "rbay"));
    }

    #[test]
    fn count_merge() {
        let mut a = AggValue::Count(3);
        a.merge(&AggValue::Count(4));
        assert_eq!(a.as_count(), Some(7));
    }

    #[test]
    fn min_max_sum_merge() {
        let mut mn = AggValue::Min(3.0);
        mn.merge(&AggValue::Min(-1.0));
        assert_eq!(mn.as_f64(), -1.0);
        let mut mx = AggValue::Max(3.0);
        mx.merge(&AggValue::Max(9.0));
        assert_eq!(mx.as_f64(), 9.0);
        let mut s = AggValue::Sum(1.5);
        s.merge(&AggValue::Sum(2.5));
        assert_eq!(s.as_f64(), 4.0);
    }

    #[test]
    fn mean_stays_composable() {
        // mean([1,2]) merged with mean([6]) == mean([1,2,6]).
        let mut a = AggValue::Mean { sum: 3.0, count: 2 };
        a.merge(&AggValue::Mean { sum: 6.0, count: 1 });
        assert_eq!(a.as_f64(), 3.0);
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn kind_mismatch_panics() {
        AggValue::Count(1).merge(&AggValue::Sum(1.0));
    }

    #[test]
    fn merge_all_handles_empty_and_order() {
        assert_eq!(AggValue::merge_all([]), None);
        let vals = [AggValue::Count(1), AggValue::Count(2), AggValue::Count(3)];
        assert_eq!(
            AggValue::merge_all(vals.iter()).unwrap().as_count(),
            Some(6)
        );
    }

    #[test]
    fn multi_merges_element_wise() {
        let mut a = AggValue::Multi(vec![
            AggValue::Count(2),
            AggValue::Mean {
                sum: 10.0,
                count: 2,
            },
            AggValue::Max(3.0),
        ]);
        a.merge(&AggValue::Multi(vec![
            AggValue::Count(1),
            AggValue::Mean {
                sum: 20.0,
                count: 1,
            },
            AggValue::Max(9.0),
        ]));
        assert_eq!(a.as_count(), Some(3));
        assert_eq!(a.component(1).unwrap().as_f64(), 10.0);
        assert_eq!(a.component(2).unwrap().as_f64(), 9.0);
        assert!(a.component(3).is_none());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn multi_arity_mismatch_panics() {
        AggValue::Multi(vec![AggValue::Count(1)]).merge(&AggValue::Multi(vec![
            AggValue::Count(1),
            AggValue::Count(2),
        ]));
    }

    #[test]
    fn as_count_rejects_other_kinds() {
        assert_eq!(AggValue::Sum(2.0).as_count(), None);
        assert_eq!(AggValue::Mean { sum: 0.0, count: 0 }.as_f64(), 0.0);
    }
}
