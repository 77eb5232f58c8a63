//! The simulator's event queue: a two-tier calendar/bucket queue.
//!
//! Discrete-event simulators spend a large share of their hot path inside
//! the pending-event priority queue. A single global `BinaryHeap` costs
//! `O(log n)` comparisons per operation over the *whole* event population;
//! a calendar queue exploits the fact that almost every event is scheduled
//! a short latency into the future (one network hop, one timer tick) by
//! hashing events into fixed-width time buckets, making the common
//! schedule/pop pair amortized `O(1)`-ish in the pending count.
//!
//! Design:
//!
//! * **Keys over a slab** — each pending payload is stored once, in a slot
//!   of one slab, and only its 24-byte `(at, seq, slot)` key is ordered.
//!   Heaps sift keys, never payloads, and a burst that drains leaves no
//!   payload-sized holes behind in thousands of bucket allocations: the
//!   slab is the one place a burst's payloads live. It grows a page of
//!   `SLAB_PAGE` slots at a time, so growing never copies what it holds,
//!   and when the queue drains it gives back every page but the first.
//! * **Near tier** — a wheel of [`NUM_BUCKETS`] buckets, each covering
//!   [`BUCKET_WIDTH_US`] µs of virtual time. An event lands in bucket
//!   `(at / width) % NUM_BUCKETS`. At any instant every bucket holds
//!   events of exactly one "day" (width-sized window), so each bucket is a
//!   tiny min-heap ordered by `(at, seq)`.
//! * **Far tier** — events scheduled beyond the wheel horizon
//!   (`NUM_BUCKETS × width`, ≈ 1 s) go to an overflow `BinaryHeap`. They
//!   are *lazily* merged: the pop path simply compares the overflow head
//!   against the wheel head, so far-future timers cost `O(log overflow)`
//!   only when they actually become due.
//!
//! Ordering is **exactly** the total order of the previous global heap:
//! `(at, seq)` lexicographically, where `seq` is the global schedule
//! sequence number. The slot an event is stored in never takes part in the
//! order. The engine's determinism guarantees are therefore preserved
//! bit-for-bit (asserted by the trace-equality tests in `engine.rs`).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Width of one calendar bucket in microseconds (must be a power of two;
/// 256 µs ≈ half a typical intra-site one-way latency).
pub const BUCKET_WIDTH_US: u64 = 1 << BUCKET_SHIFT;
const BUCKET_SHIFT: u32 = 8;

/// Number of buckets in the wheel. With 256 µs buckets the wheel covers
/// ~1.05 s of virtual time — enough for every per-message latency and the
/// common maintenance timers; anything longer overflows to the far tier.
pub const NUM_BUCKETS: usize = 1 << 12;
const DAY_MASK: u64 = (NUM_BUCKETS as u64) - 1;

/// Most keys' worth of allocation a drained bucket keeps for its next
/// day. Steady traffic puts a handful of events in a bucket; only a burst
/// exceeds this, and a burst's memory is given back once it has drained.
const RETAINED_BUCKET_CAPACITY: usize = 64;

/// Slots per page of the payload slab. A page is allocated when every
/// slot so far is taken; a `Vec` that doubled instead would copy the
/// whole burst and hold it twice for the length of the copy.
const SLAB_PAGE: usize = 1 << 10;

/// One queued event's place in the order: its `(at, seq)` and the slab
/// slot that holds its payload.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Key>() == 24);

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (at, seq) wins.
        // `seq` is unique, so `slot` never decides.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Where the next event lives (result of the shared peek scan).
enum Loc {
    Wheel(usize),
    Overflow,
}

/// A two-tier calendar/bucket event queue with exact `(at, seq)` ordering.
///
/// ```
/// use simnet::queue::CalendarQueue;
/// use simnet::SimTime;
///
/// let mut q = CalendarQueue::new();
/// q.push(SimTime::from_millis(5), 1, "b");
/// q.push(SimTime::from_millis(1), 0, "a");
/// q.push(SimTime::from_secs(30), 2, "far");
/// assert_eq!(q.pop().map(|(_, _, p)| p), Some("a"));
/// assert_eq!(q.pop().map(|(_, _, p)| p), Some("b"));
/// assert_eq!(q.pop().map(|(_, _, p)| p), Some("far"));
/// assert!(q.pop().is_none());
/// ```
pub struct CalendarQueue<T> {
    buckets: Vec<BinaryHeap<Key>>,
    overflow: BinaryHeap<Key>,
    /// Every pending payload, at the slot its key names: slot `s` is
    /// `slab[s / SLAB_PAGE][s % SLAB_PAGE]`. Of the first `slots_used`
    /// slots, those holding `None` are listed in `free`.
    slab: Vec<Box<[Option<T>]>>,
    slots_used: usize,
    free: Vec<u32>,
    /// First "day" (bucket-width window) that may still hold events.
    /// Invariant: every queued event's day is `>= cursor_day`.
    cursor_day: u64,
    /// Events currently in the wheel (not counting overflow).
    wheel_len: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..NUM_BUCKETS).map(|_| BinaryHeap::new()).collect(),
            overflow: BinaryHeap::new(),
            slab: Vec::new(),
            slots_used: 0,
            free: Vec::new(),
            cursor_day: 0,
            wheel_len: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.slots_used - self.free.len()
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn day_of(at: SimTime) -> u64 {
        at.as_micros() >> BUCKET_SHIFT
    }

    fn slot_mut(&mut self, slot: u32) -> &mut Option<T> {
        let slot = slot as usize;
        &mut self.slab[slot / SLAB_PAGE][slot % SLAB_PAGE]
    }

    /// Inserts an event. `seq` must be unique per queue (the engine's
    /// global schedule counter).
    pub fn push(&mut self, at: SimTime, seq: u64, payload: T) {
        let day = Self::day_of(at);
        // The engine never schedules into the past, but run_until() can
        // leave `now` ahead of the cursor; moving the cursor back is always
        // safe (it only costs a rescan of empty buckets).
        if day < self.cursor_day {
            self.cursor_day = day;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            if self.slots_used == self.slab.len() * SLAB_PAGE {
                self.slab.push((0..SLAB_PAGE).map(|_| None).collect());
            }
            self.slots_used += 1;
            u32::try_from(self.slots_used - 1).expect("fewer than 2^32 pending events")
        });
        *self.slot_mut(slot) = Some(payload);
        let key = Key { at, seq, slot };
        if day >= self.cursor_day + NUM_BUCKETS as u64 {
            self.overflow.push(key);
        } else {
            self.buckets[(day & DAY_MASK) as usize].push(key);
            self.wheel_len += 1;
        }
    }

    /// Locates the earliest event, advancing the cursor past empty days.
    ///
    /// The scan walks at most one full rotation from the cursor. Within a
    /// single scan, a bucket whose top is at exactly the scanned day is a
    /// provable wheel minimum (any earlier event would have been some
    /// already-scanned bucket's top); tops at wrapped (later-rotation) days
    /// are tracked as fallback candidates so the scan is bounded by
    /// [`NUM_BUCKETS`] even after a cursor rollback. The cursor ends at the
    /// winning event's day, preserving the invariant that no queued event
    /// is earlier than the cursor.
    fn peek_loc(&mut self) -> Option<Loc> {
        if self.is_empty() {
            return None;
        }
        let overflow_key = self.overflow.peek().map(|k| (k.at, k.seq));
        let overflow_day = overflow_key.map(|(at, _)| Self::day_of(at));

        // (day, bucket index, (at, seq)) of the best wheel candidate.
        let mut wheel_best: Option<(u64, usize, (SimTime, u64))> = None;
        if self.wheel_len > 0 {
            let start = self.cursor_day;
            for step in 0..NUM_BUCKETS as u64 {
                let d = start + step;
                let idx = (d & DAY_MASK) as usize;
                if let Some(top) = self.buckets[idx].peek() {
                    let top_day = Self::day_of(top.at);
                    if top_day == d {
                        // Exact hit: the wheel minimum. Any wrapped
                        // candidates recorded so far are >= d + NUM_BUCKETS.
                        wheel_best = Some((top_day, idx, (top.at, top.seq)));
                        break;
                    }
                    // Wrapped top (a later rotation): candidate, keep the min.
                    if wheel_best.is_none_or(|(bd, _, _)| top_day < bd) {
                        wheel_best = Some((top_day, idx, (top.at, top.seq)));
                    }
                }
                // If the overflow head is due no later than every unscanned
                // day, it bounds the result; stop scanning.
                if overflow_day.is_some_and(|od| d >= od) {
                    break;
                }
            }
        }

        match (wheel_best, overflow_key) {
            (Some((_, _, wkey)), Some(okey)) if okey < wkey => {
                self.cursor_day = Self::day_of(okey.0);
                Some(Loc::Overflow)
            }
            (Some((d, idx, _)), _) => {
                self.cursor_day = d;
                Some(Loc::Wheel(idx))
            }
            (None, Some(okey)) => {
                self.cursor_day = Self::day_of(okey.0);
                Some(Loc::Overflow)
            }
            (None, None) => unreachable!("len > 0 but no event found"),
        }
    }

    /// `(at, seq)` of the earliest event without removing it.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        let loc = self.peek_loc()?;
        let key = match loc {
            Loc::Wheel(idx) => self.buckets[idx].peek(),
            Loc::Overflow => self.overflow.peek(),
        };
        key.map(|k| (k.at, k.seq))
    }

    /// Removes and returns the earliest event as `(at, seq, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let loc = self.peek_loc()?;
        let key = match loc {
            Loc::Wheel(idx) => {
                self.wheel_len -= 1;
                let bucket = &mut self.buckets[idx];
                let key = bucket.pop();
                // A burst (one maintenance round's sends) lands in a few
                // buckets, and the next burst in a few others: a drained
                // bucket that kept its allocation would hold it for good.
                if bucket.is_empty() && bucket.capacity() > RETAINED_BUCKET_CAPACITY {
                    *bucket = BinaryHeap::new();
                }
                key
            }
            Loc::Overflow => self.overflow.pop(),
        }
        .expect("peek_loc found an event");
        let payload = self
            .slot_mut(key.slot)
            .take()
            .expect("a queued key names a full slot");
        self.free.push(key.slot);
        if self.is_empty() {
            // Every slot is free. The first page stays for the next burst
            // (a simulation that drains after every query would otherwise
            // allocate it again each time); the rest of the slab's peak is
            // given back rather than kept for a burst that may never come.
            self.slab.truncate(1);
            self.slots_used = 0;
            self.free.clear();
            self.free.shrink_to(SLAB_PAGE);
            self.overflow.shrink_to(RETAINED_BUCKET_CAPACITY);
        }
        Some((key.at, key.seq, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u64>) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, payload)) = q.pop() {
            assert_eq!(seq, payload, "payload tracks seq in these tests");
            out.push((at, seq));
        }
        out
    }

    #[test]
    fn orders_by_time_then_seq() {
        let mut q = CalendarQueue::new();
        // Same timestamp: must pop in seq order; different timestamps: time
        // order regardless of insertion order.
        q.push(SimTime::from_micros(500), 3, 3);
        q.push(SimTime::from_micros(100), 2, 2);
        q.push(SimTime::from_micros(500), 1, 1);
        q.push(SimTime::from_micros(100), 0, 0);
        let order = drain(&mut q);
        assert_eq!(
            order,
            vec![
                (SimTime::from_micros(100), 0),
                (SimTime::from_micros(100), 2),
                (SimTime::from_micros(500), 1),
                (SimTime::from_micros(500), 3),
            ]
        );
    }

    #[test]
    fn matches_reference_heap_on_random_workload() {
        // Deterministic pseudo-random interleaving of pushes and pops,
        // compared against a plain sorted reference. Every 500th round
        // drains the queue, so slabs given back and regrown are covered,
        // and each payload must come back with its own key.
        let mut q = CalendarQueue::new();
        let mut reference: Vec<(SimTime, u64)> = Vec::new();
        let mut x: u64 = 0x1234_5678;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut now = SimTime::ZERO;
        for round in 0..2_000u64 {
            let seq = round;
            // Mix of near (same-bucket), mid (wheel), and far (overflow).
            let delta = match rng() % 10 {
                0..=5 => rng() % 700,                // near: < 1ms
                6..=8 => rng() % 200_000,            // mid: < 200ms
                _ => 1_000_000 + rng() % 30_000_000, // far: 1s..31s
            };
            let at = now + crate::SimDuration::from_micros(delta);
            q.push(at, seq, seq);
            reference.push((at, seq));
            if round % 3 == 0 {
                reference.sort();
                let expect = reference.remove(0);
                let got = q.pop().expect("queue non-empty");
                assert_eq!((got.0, got.1), expect, "round {round}");
                assert_eq!(got.1, got.2, "round {round}: payload of another key");
                now = got.0; // events only move time forward
            }
            if round % 500 == 499 {
                reference.sort();
                assert_eq!(drain(&mut q), std::mem::take(&mut reference));
                now = SimTime::ZERO; // and the cursor rolls back
            }
        }
        reference.sort();
        assert_eq!(drain(&mut q), reference);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_overflow_pops_in_order() {
        let mut q = CalendarQueue::new();
        // All beyond the wheel horizon (> ~1s).
        q.push(SimTime::from_secs(30), 0, 0);
        q.push(SimTime::from_secs(10), 1, 1);
        q.push(SimTime::from_secs(20), 2, 2);
        // One near event.
        q.push(SimTime::from_micros(5), 3, 3);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, s, _)| s).collect();
        assert_eq!(order, vec![3, 1, 2, 0]);
    }

    #[test]
    fn push_after_long_idle_gap_is_found() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_micros(1), 0, 0);
        assert!(q.pop().is_some());
        // Far beyond where the cursor sits — crosses many wheel rotations.
        q.push(SimTime::from_secs(120), 1, 1);
        assert_eq!(q.peek_key(), Some((SimTime::from_secs(120), 1)));
        assert_eq!(q.pop().map(|(_, s, _)| s), Some(1));
        // And the queue is reusable afterwards.
        q.push(SimTime::from_secs(121), 2, 2);
        assert_eq!(q.pop().map(|(_, s, _)| s), Some(2));
    }

    #[test]
    fn overflow_then_near_insert_keeps_order() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_secs(5), 0, 0); // overflow at insert time
        q.push(SimTime::from_micros(10), 1, 1);
        assert_eq!(q.pop().map(|(_, s, _)| s), Some(1));
        // Cursor is now near zero; the overflow event must still surface
        // even though the wheel is empty.
        q.push(SimTime::from_secs(5).max(SimTime::ZERO), 2, 2);
        let next_two: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, s, _)| s).collect();
        assert_eq!(next_two, vec![0, 2], "same-time overflow events pop by seq");
    }

    /// A burst must not stay allocated after it drains: at 4,096 buckets,
    /// bursts that each dirty fresh buckets would otherwise add up to the
    /// whole run's traffic, and the slab would keep the largest burst's
    /// payloads for good.
    #[test]
    fn drained_burst_gives_its_memory_back() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        let keys = |q: &CalendarQueue<u64>| -> usize {
            q.buckets.iter().map(BinaryHeap::capacity).sum::<usize>() + q.overflow.capacity()
        };
        let day = SimTime::from_millis(250);
        for i in 0..50_000 {
            q.push(day, i, i);
        }
        q.push(SimTime::from_secs(30), 50_000, 50_000);
        assert!(keys(&q) > 50_000);
        assert!(q.slab.len() * SLAB_PAGE > 50_000);
        assert_eq!(drain(&mut q).len(), 50_001);
        assert!(
            keys(&q) <= 2 * RETAINED_BUCKET_CAPACITY,
            "{} keys",
            keys(&q)
        );
        assert_eq!(q.slab.len(), 1, "pages past the first are given back");
        assert!(q.free.capacity() <= SLAB_PAGE);
        // Steady traffic keeps its small allocation from day to day.
        q.push(SimTime::from_millis(300), 50_001, 50_001);
        assert!(q.pop().is_some());
        assert!(keys(&q) > 0);
    }

    /// A payload is stored once, in a slot a popped event gave back: a
    /// queue that holds 100 events at a time never has more than 100 slots,
    /// however many events pass through it.
    #[test]
    fn steady_traffic_reuses_slab_slots() {
        let mut q = CalendarQueue::new();
        for seq in 0..100 {
            q.push(SimTime::from_micros(seq * 10), seq, seq);
        }
        for seq in 100..10_000 {
            let (at, s, payload) = q.pop().expect("queue stays full");
            assert_eq!(s, payload);
            q.push(at + crate::SimDuration::from_millis(1), seq, seq);
            assert_eq!(q.slots_used, 100);
        }
        assert_eq!(q.len(), 100);
    }

    #[test]
    fn len_tracks_push_pop() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        assert!(q.is_empty());
        for i in 0..100 {
            q.push(SimTime::from_micros(i * 37 % 1000), i, i);
        }
        assert_eq!(q.len(), 100);
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
        assert!(q.is_empty());
    }
}
