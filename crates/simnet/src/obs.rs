//! Cross-layer observability plane: a structured event trace plus a
//! per-node and global metrics registry.
//!
//! The plane is deliberately *passive*: a [`Recorder`] handle is cloned into
//! every layer that wants to emit events (the simulation engine, Pastry
//! routing, Scribe tree maintenance, the RBAY query lifecycle). A disabled
//! recorder holds no allocation at all — every hook is a single `Option`
//! branch, and event payload construction is deferred behind a closure so a
//! disabled run never formats, hashes, or clones anything. This is what
//! keeps the hot path (fig. 8a runs) within noise of an
//! uninstrumented build.
//!
//! Topic and route keys are carried as raw `u128` values rather than the
//! `pastry`/`scribe` newtypes so that `simnet` (the bottom of the crate
//! stack) can own the event type without a dependency inversion.

use crate::time::SimTime;
use crate::topology::NodeAddr;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Number of buckets in the hop-count histogram. Hop counts at or above
/// `HOP_BUCKETS - 1` land in the last (overflow) bucket.
pub const HOP_BUCKETS: usize = 16;

/// Hard ceiling on the event-buffer capacity, mirroring the engine trace cap.
const MAX_EVENT_CAP: usize = 1 << 20;

/// One structured observability event, stamped with the simulation time at
/// which the emitting dispatch ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsEvent {
    /// A Pastry node forwarded a routed message one hop closer to `key`.
    RouteForward {
        /// Simulation time of the forwarding dispatch.
        at: SimTime,
        /// The node that forwarded.
        node: NodeAddr,
        /// Raw 128-bit route key.
        key: u128,
        /// Hop count so far (before this forward).
        hops: u16,
    },
    /// A routed message reached the numerically-closest node and was
    /// delivered to the application layer.
    RouteDeliver {
        /// Simulation time of delivery.
        at: SimTime,
        /// The delivering (root-for-key) node.
        node: NodeAddr,
        /// Raw 128-bit route key.
        key: u128,
        /// Total overlay hops taken.
        hops: u16,
    },
    /// A node adopted `child` into its children set for `topic`.
    TreeGraft {
        /// Simulation time of the graft.
        at: SimTime,
        /// The adopting parent.
        parent: NodeAddr,
        /// The new child.
        child: NodeAddr,
        /// Raw topic key.
        topic: u128,
    },
    /// A node's parent pointer for `topic` changed (initial attach or
    /// re-parent).
    TreeParent {
        /// Simulation time of the change.
        at: SimTime,
        /// The node whose parent changed.
        node: NodeAddr,
        /// Raw topic key.
        topic: u128,
        /// Previous parent, if any.
        old: Option<NodeAddr>,
        /// New parent.
        new: NodeAddr,
    },
    /// A parent removed `child` from its children set for `topic`.
    TreeLeave {
        /// Simulation time of the removal.
        at: SimTime,
        /// The parent that dropped the child.
        parent: NodeAddr,
        /// The departing child.
        child: NodeAddr,
        /// Raw topic key.
        topic: u128,
    },
    /// A node pushed an aggregate update for `topic` to its parent.
    AggSend {
        /// Simulation time of the send.
        at: SimTime,
        /// The child pushing the update.
        from: NodeAddr,
        /// The parent it was addressed to.
        to: NodeAddr,
        /// Raw topic key.
        topic: u128,
    },
    /// A node rejected an aggregate update from a sender it does not list
    /// as a child (the `NotChild` NACK was sent back).
    NotChild {
        /// Simulation time of the rejection.
        at: SimTime,
        /// The rejecting (would-be parent) node.
        node: NodeAddr,
        /// The orphaned sender that was NACKed.
        orphan: NodeAddr,
        /// Raw topic key.
        topic: u128,
    },
    /// A failure detector sent a heartbeat ping.
    HeartbeatSend {
        /// Simulation time of the send.
        at: SimTime,
        /// The pinging node.
        from: NodeAddr,
        /// The pinged peer.
        to: NodeAddr,
    },
    /// A heartbeat ping went unanswered past the timeout and the peer was
    /// declared failed.
    HeartbeatExpire {
        /// Simulation time of the declaration.
        at: SimTime,
        /// The node that declared the failure.
        detector: NodeAddr,
        /// The peer declared failed.
        peer: NodeAddr,
    },
    /// A previously-suspected peer proved itself alive again and was
    /// un-suspected.
    Unsuspect {
        /// Simulation time of the clearing.
        at: SimTime,
        /// The node clearing the suspicion.
        node: NodeAddr,
        /// The peer restored to good standing.
        peer: NodeAddr,
    },
    /// A query attempt (initial issue or retry) fanned out probes.
    QueryAttempt {
        /// Simulation time of the attempt.
        at: SimTime,
        /// The issuing node.
        node: NodeAddr,
        /// Low 32 bits of the query id.
        seq: u32,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// A query completed (satisfied or exhausted).
    QueryDone {
        /// Simulation time of completion.
        at: SimTime,
        /// The issuing node.
        node: NodeAddr,
        /// Low 32 bits of the query id.
        seq: u32,
        /// Whether the result met the requested `k`.
        satisfied: bool,
    },
    /// A durable-store WAL append (a state mutation hit disk before its
    /// ack).
    StoreAppend {
        /// Simulation time of the append.
        at: SimTime,
        /// The appending node.
        node: NodeAddr,
        /// Record kind (`attr_put`, `sub_add`, `commit`, …).
        kind: &'static str,
        /// Live-WAL size after the append, in records.
        wal_records: u64,
    },
    /// A durable-store snapshot compaction: the WAL was folded into a new
    /// snapshot generation.
    StoreSnapshot {
        /// Simulation time of the compaction.
        at: SimTime,
        /// The compacting node.
        node: NodeAddr,
        /// Snapshot generations taken so far.
        snapshots: u64,
    },
    /// A restarted node replayed its snapshot + WAL on boot.
    StoreReplay {
        /// Simulation time of the restore.
        at: SimTime,
        /// The restored node.
        node: NodeAddr,
        /// WAL records replayed.
        records: u64,
        /// Wall-clock microseconds the replay took.
        micros: u64,
    },
    /// A recovered handler source failed re-lint under the current policy
    /// on restore and was quarantined instead of re-installed.
    RestoreRelintReject {
        /// Simulation time of the rejection.
        at: SimTime,
        /// The restoring node.
        node: NodeAddr,
    },
}

impl ObsEvent {
    /// Simulation time the event was recorded at.
    pub fn at(&self) -> SimTime {
        match self {
            ObsEvent::RouteForward { at, .. }
            | ObsEvent::RouteDeliver { at, .. }
            | ObsEvent::TreeGraft { at, .. }
            | ObsEvent::TreeParent { at, .. }
            | ObsEvent::TreeLeave { at, .. }
            | ObsEvent::AggSend { at, .. }
            | ObsEvent::NotChild { at, .. }
            | ObsEvent::HeartbeatSend { at, .. }
            | ObsEvent::HeartbeatExpire { at, .. }
            | ObsEvent::Unsuspect { at, .. }
            | ObsEvent::QueryAttempt { at, .. }
            | ObsEvent::QueryDone { at, .. }
            | ObsEvent::StoreAppend { at, .. }
            | ObsEvent::StoreSnapshot { at, .. }
            | ObsEvent::StoreReplay { at, .. }
            | ObsEvent::RestoreRelintReject { at, .. } => *at,
        }
    }
}

#[derive(Debug, Default)]
struct ObsCore {
    now: SimTime,
    cap: usize,
    dropped: u64,
    events: Vec<ObsEvent>,
    counts: BTreeMap<&'static str, u64>,
    node_counts: BTreeMap<(NodeAddr, &'static str), u64>,
    hop_hist: [u64; HOP_BUCKETS],
}

/// A cheap, cloneable handle onto a shared observability buffer.
///
/// All clones of an enabled recorder share one buffer; a federation
/// installs clones of the same recorder into its simulation engine and
/// every per-node layer. The default (disabled) recorder carries `None`
/// and every recording method returns after a single branch.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    core: Option<Rc<RefCell<ObsCore>>>,
}

impl Recorder {
    /// A disabled recorder: all hooks are no-ops. Same as `default()`.
    pub fn disabled() -> Self {
        Recorder { core: None }
    }

    /// An enabled recorder whose event buffer holds at most `capacity`
    /// events (counters are unaffected by the cap; overflowing events are
    /// counted as dropped).
    pub fn enabled(capacity: usize) -> Self {
        let cap = capacity.min(MAX_EVENT_CAP);
        Recorder {
            core: Some(Rc::new(RefCell::new(ObsCore {
                cap,
                events: Vec::with_capacity(cap.min(1 << 12)),
                ..ObsCore::default()
            }))),
        }
    }

    /// Whether this recorder actually records anything.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Advance the recorder's notion of simulation time. Called by the
    /// engine at every dispatch so events emitted from within actor
    /// callbacks are stamped correctly.
    #[inline]
    pub fn set_now(&self, now: SimTime) {
        if let Some(core) = &self.core {
            core.borrow_mut().now = now;
        }
    }

    /// Record an event. The closure receives the current simulation time
    /// and is only invoked when the recorder is enabled, so disabled runs
    /// never construct the event payload.
    #[inline]
    pub fn record_with<F: FnOnce(SimTime) -> ObsEvent>(&self, f: F) {
        if let Some(core) = &self.core {
            let mut core = core.borrow_mut();
            let now = core.now;
            if core.events.len() < core.cap {
                let ev = f(now);
                core.events.push(ev);
            } else {
                core.dropped += 1;
            }
        }
    }

    /// Bump the global and per-node counters for `kind`. `kind` must be a
    /// static string so disabled runs pay nothing and enabled runs avoid
    /// allocation.
    #[inline]
    pub fn count(&self, node: NodeAddr, kind: &'static str) {
        if let Some(core) = &self.core {
            let mut core = core.borrow_mut();
            *core.counts.entry(kind).or_insert(0) += 1;
            *core.node_counts.entry((node, kind)).or_insert(0) += 1;
        }
    }

    /// Bump the global and per-node counters for `kind` by `n` in one
    /// call (bulk contributions like a WAL replay's record count).
    #[inline]
    pub fn count_n(&self, node: NodeAddr, kind: &'static str, n: u64) {
        if let Some(core) = &self.core {
            let mut core = core.borrow_mut();
            *core.counts.entry(kind).or_insert(0) += n;
            *core.node_counts.entry((node, kind)).or_insert(0) += n;
        }
    }

    /// Add one observation to the hop-count histogram.
    #[inline]
    pub fn observe_hops(&self, hops: u16) {
        if let Some(core) = &self.core {
            let bucket = (hops as usize).min(HOP_BUCKETS - 1);
            core.borrow_mut().hop_hist[bucket] += 1;
        }
    }

    /// Clone out the recorded event buffer (empty when disabled).
    pub fn events(&self) -> Vec<ObsEvent> {
        match &self.core {
            Some(core) => core.borrow().events.clone(),
            None => Vec::new(),
        }
    }

    /// Global count for `kind` (zero when disabled or never bumped).
    pub fn global_count(&self, kind: &str) -> u64 {
        match &self.core {
            Some(core) => core.borrow().counts.get(kind).copied().unwrap_or(0),
            None => 0,
        }
    }

    /// Per-node count for `kind` (zero when disabled or never bumped).
    pub fn node_count(&self, node: NodeAddr, kind: &'static str) -> u64 {
        match &self.core {
            Some(core) => core
                .borrow()
                .node_counts
                .get(&(node, kind))
                .copied()
                .unwrap_or(0),
            None => 0,
        }
    }

    /// Snapshot the aggregate metrics (counters, hop histogram, buffer
    /// occupancy). Returns the default (all-zero) snapshot when disabled.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.core {
            Some(core) => {
                let core = core.borrow();
                MetricsSnapshot {
                    events_recorded: core.events.len() as u64,
                    events_dropped: core.dropped,
                    counts: core
                        .counts
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), *v))
                        .collect(),
                    hop_hist: core.hop_hist,
                }
            }
            None => MetricsSnapshot::default(),
        }
    }
}

/// A point-in-time copy of the recorder's aggregate metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Events currently held in the buffer.
    pub events_recorded: u64,
    /// Events discarded because the buffer was at capacity.
    pub events_dropped: u64,
    /// Global counters keyed by event kind.
    pub counts: BTreeMap<String, u64>,
    /// Histogram of delivered-route hop counts; the last bucket is
    /// overflow.
    pub hop_hist: [u64; HOP_BUCKETS],
}

impl MetricsSnapshot {
    /// Global counter value for `kind` (zero when absent).
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// Mean hops over all histogram observations; `NaN` when empty.
    pub fn mean_hops(&self) -> f64 {
        let total: u64 = self.hop_hist.iter().sum();
        if total == 0 {
            return f64::NAN;
        }
        let weighted: u64 = self
            .hop_hist
            .iter()
            .enumerate()
            .map(|(i, n)| i as u64 * n)
            .sum();
        weighted as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        r.set_now(SimTime::ZERO + SimDuration::from_millis(5));
        r.record_with(|at| ObsEvent::HeartbeatSend {
            at,
            from: NodeAddr(0),
            to: NodeAddr(1),
        });
        r.count(NodeAddr(0), "x");
        r.observe_hops(3);
        assert!(!r.is_enabled());
        assert!(r.events().is_empty());
        assert_eq!(r.global_count("x"), 0);
        assert_eq!(r.snapshot().events_recorded, 0);
    }

    #[test]
    fn clones_share_one_buffer() {
        let r = Recorder::enabled(64);
        let r2 = r.clone();
        r.set_now(SimTime::ZERO + SimDuration::from_millis(7));
        r2.record_with(|at| ObsEvent::HeartbeatSend {
            at,
            from: NodeAddr(1),
            to: NodeAddr(2),
        });
        let evs = r.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].at(), SimTime::ZERO + SimDuration::from_millis(7));
    }

    #[test]
    fn event_buffer_cap_is_respected() {
        let r = Recorder::enabled(2);
        for _ in 0..5 {
            r.record_with(|at| ObsEvent::HeartbeatSend {
                at,
                from: NodeAddr(0),
                to: NodeAddr(1),
            });
        }
        let snap = r.snapshot();
        assert_eq!(snap.events_recorded, 2);
        assert_eq!(snap.events_dropped, 3);
    }

    #[test]
    fn counters_and_hops_aggregate() {
        let r = Recorder::enabled(8);
        r.count(NodeAddr(3), "route_forward");
        r.count(NodeAddr(3), "route_forward");
        r.count(NodeAddr(4), "route_forward");
        r.observe_hops(1);
        r.observe_hops(3);
        r.observe_hops(200); // overflow bucket
        let snap = r.snapshot();
        assert_eq!(snap.count("route_forward"), 3);
        assert_eq!(r.node_count(NodeAddr(3), "route_forward"), 2);
        assert_eq!(snap.hop_hist[HOP_BUCKETS - 1], 1);
        assert!((snap.mean_hops() - (1.0 + 3.0 + 15.0) / 3.0).abs() < 1e-9);
    }
}
