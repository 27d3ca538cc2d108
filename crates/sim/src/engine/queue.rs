//! The event queue: a two-level bucket (calendar) queue.
//!
//! The simulator previously ordered events with a
//! `BinaryHeap<Reverse<(cycle, seq)>>` — `O(log n)` comparisons and a
//! pointer-chasing sift per operation on the hottest path in the
//! repository (every message hop, core step and L2 lookup is one event).
//! Simulated time, however, is an integer that only moves forward, and
//! almost every event lands within a few hundred cycles of *now* (mesh
//! hops, L2 latency, DRAM round trips). A calendar queue exploits that:
//!
//! * a **near wheel** of `WINDOW` per-cycle FIFO buckets covers
//!   `[now, now + WINDOW)`; push is "append to `bucket[cycle % WINDOW]`",
//!   pop is "advance the cursor to the next non-empty bucket and pop its
//!   front" — both O(1) amortized, no comparisons. An occupancy bitmap
//!   (one bit per bucket) turns the advance into a next-set-bit jump, so
//!   sparse stretches of simulated time cost a handful of word scans
//!   instead of one iteration per empty cycle;
//! * a **far map** (`BTreeMap<cycle, Vec>`) holds the rare events beyond
//!   the window (deep DRAM/contention backlogs); whole buckets migrate
//!   into the wheel as the cursor approaches, and an empty wheel jumps the
//!   cursor straight to the earliest far cycle.
//!
//! **Ordering contract**: `pop` yields events in exactly the total order
//! `(cycle, insertion sequence)` — identical to the `BinaryHeap` it
//! replaced, which is what keeps simulation reports byte-identical across
//! the swap. Within a bucket FIFO order *is* insertion order; far buckets
//! are appended in insertion order and migrate before any newer push can
//! land in the same wheel slot (pushes only happen between pops, and the
//! cursor only moves during pops). The property test in
//! `tests/engine_invariants.rs` checks this against a reference heap
//! model.

use std::collections::{BTreeMap, VecDeque};

use lacc_model::Cycle;

/// Near-wheel width in cycles. Must be a power of two. Covers every
/// common latency (hop ≈ 2, L2 ≈ 7–9, DRAM ≈ 100, install retry = 32)
/// so the far map is touched only under heavy contention backlogs.
///
/// Public so tests can pin the horizon boundary: a push landing at
/// exactly `cur + WINDOW` is the first cycle *outside* the wheel and
/// must route to the far map — `near[at % WINDOW]` is the bucket
/// currently serving cycle `cur`, and aliasing into it would deliver
/// the event a full window early.
pub const WINDOW: usize = 128;

/// One occupancy word covers 64 wheel slots.
const OCC_WORDS: usize = WINDOW / 64;

/// A monotonic-time priority queue of `(Cycle, T)` preserving insertion
/// order among equal cycles. See the module docs for the design.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    near: Vec<VecDeque<T>>,
    /// Scan cursor: no queued event is earlier than `cur`.
    cur: Cycle,
    near_len: usize,
    /// Wheel occupancy bitmap: bit `s` of the concatenated words is set
    /// iff `near[s]` is non-empty. Advancing the cursor is a circular
    /// next-set-bit scan (≤ `OCC_WORDS + 1` word reads) instead of
    /// stepping empty buckets one cycle at a time — on sparse timelines
    /// the per-cycle step is the dominant pop cost.
    occ: [u64; OCC_WORDS],
    far: BTreeMap<Cycle, Vec<T>>,
    far_len: usize,
    /// Cached `far.keys().next()` (`Cycle::MAX` when `far` is empty).
    far_min: Cycle,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue starting at cycle 0.
    #[must_use]
    pub fn new() -> Self {
        CalendarQueue {
            near: (0..WINDOW).map(|_| VecDeque::new()).collect(),
            cur: 0,
            near_len: 0,
            occ: [0; OCC_WORDS],
            far: BTreeMap::new(),
            far_len: 0,
            far_min: Cycle::MAX,
        }
    }

    #[inline]
    fn occ_set(&mut self, slot: usize) {
        self.occ[slot / 64] |= 1 << (slot % 64);
    }

    #[inline]
    fn occ_clear(&mut self, slot: usize) {
        self.occ[slot / 64] &= !(1 << (slot % 64));
    }

    /// Circular distance from the cursor's slot to the nearest occupied
    /// slot (0 when the cursor's own bucket is non-empty). Callers must
    /// ensure `near_len > 0`.
    #[inline]
    fn next_occupied_distance(&self) -> usize {
        let s = self.cur as usize % WINDOW;
        let (w0, b0) = (s / 64, s % 64);
        let head = self.occ[w0] >> b0;
        if head != 0 {
            return head.trailing_zeros() as usize;
        }
        let mut dist = 64 - b0;
        for i in 1..=OCC_WORDS {
            // The final iteration rereads `w0` in full: its bits at or
            // above `b0` are known clear, so a hit there is a slot below
            // `b0` — a full wrap of the wheel.
            let w = self.occ[(w0 + i) % OCC_WORDS];
            if w != 0 {
                return dist + w.trailing_zeros() as usize;
            }
            dist += 64;
        }
        unreachable!("near_len > 0 implies an occupied wheel slot")
    }

    /// Total queued events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.near_len + self.far_len
    }

    /// `true` when no event is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `item` at cycle `at`.
    ///
    /// Time is monotonic: `at` must not precede the cycle of the last
    /// popped event (debug-asserted; a violating push is clamped to it,
    /// matching how a heap would deliver it immediately anyway).
    pub fn push(&mut self, at: Cycle, item: T) {
        debug_assert!(at >= self.cur, "event scheduled at {at} before current cycle {}", self.cur);
        let at = at.max(self.cur);
        if at < self.cur + WINDOW as Cycle {
            let slot = at as usize % WINDOW;
            self.near[slot].push_back(item);
            self.near_len += 1;
            self.occ_set(slot);
        } else {
            self.far.entry(at).or_default().push(item);
            self.far_len += 1;
            if at < self.far_min {
                self.far_min = at;
            }
        }
    }

    /// Migrates far buckets that entered the near window. A wheel slot a
    /// far bucket lands in is necessarily empty: its previous occupant
    /// cycle is < cur (already drained) and no direct push can have
    /// targeted this cycle while it was still outside the window.
    fn migrate_far(&mut self) {
        while self.far_min < self.cur + WINDOW as Cycle {
            let (at, batch) = self.far.pop_first().expect("far_min tracks a live key");
            self.far_len -= batch.len();
            self.near_len += batch.len();
            let slot = at as usize % WINDOW;
            debug_assert!(self.near[slot].is_empty(), "far bucket migrating into an occupied slot");
            self.near[slot].extend(batch);
            self.occ_set(slot);
            self.far_min = self.far.keys().next().copied().unwrap_or(Cycle::MAX);
        }
    }

    /// Advances the cursor (migrating far buckets) to the earliest
    /// queued event's cycle; `None` when empty.
    fn advance(&mut self) -> Option<Cycle> {
        loop {
            self.migrate_far();
            if self.near_len == 0 {
                if self.far_len == 0 {
                    return None;
                }
                // Nothing in the window: jump straight to the earliest far
                // cycle instead of scanning empty buckets.
                self.cur = self.far_min;
                continue;
            }
            let d = self.next_occupied_distance();
            if d == 0 {
                return Some(self.cur);
            }
            // Jump straight to the next occupied bucket. The skipped
            // slots are empty, so far buckets the jump pulls into the
            // window can still migrate into them (next iteration), and
            // every such cycle is ≥ the old `cur + WINDOW` — later than
            // the bucket just found — so the jump never overshoots.
            self.cur += d as Cycle;
        }
    }

    /// Removes and returns the earliest event as `(cycle, item)`; equal
    /// cycles pop in push order.
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        let at = self.advance()?;
        let slot = at as usize % WINDOW;
        let item = self.near[slot].pop_front().expect("advance found a head");
        self.near_len -= 1;
        if self.near[slot].is_empty() {
            self.occ_clear(slot);
        }
        Some((at, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_cycle_then_fifo_order() {
        let mut q = CalendarQueue::new();
        q.push(5, "a");
        q.push(3, "b");
        q.push(5, "c");
        q.push(3, "d");
        let order: Vec<(Cycle, &str)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(3, "b"), (3, "d"), (5, "a"), (5, "c")]);
    }

    #[test]
    fn far_events_jump_the_cursor() {
        let mut q = CalendarQueue::new();
        q.push(1_000_000, "far");
        q.push(2, "near");
        assert_eq!(q.pop(), Some((2, "near")));
        assert_eq!(q.pop(), Some((1_000_000, "far")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn far_and_near_interleave_at_the_same_cycle() {
        let mut q = CalendarQueue::new();
        let target = WINDOW as Cycle + 100;
        q.push(target, 1); // lands far
        q.push(200, 0);
        assert_eq!(q.pop(), Some((200, 0)));
        // target is now inside the window: this push must order *after*
        // the migrated far event at the same cycle.
        q.push(target, 2);
        assert_eq!(q.pop(), Some((target, 1)));
        assert_eq!(q.pop(), Some((target, 2)));
    }

    #[test]
    fn push_at_current_cycle_during_drain() {
        let mut q = CalendarQueue::new();
        q.push(10, 1);
        assert_eq!(q.pop(), Some((10, 1)));
        q.push(10, 2); // an event scheduling a same-cycle successor
        q.push(11, 3);
        assert_eq!(q.pop(), Some((10, 2)));
        assert_eq!(q.pop(), Some((11, 3)));
    }

    /// The horizon boundary: a push at exactly `cur + WINDOW` is the
    /// first cycle outside the wheel. `near[at % WINDOW]` is the bucket
    /// serving cycle `cur` itself, so aliasing into it would pop the
    /// event a full window early — it must route far.
    #[test]
    fn push_at_exactly_cur_plus_window_routes_far() {
        let mut q = CalendarQueue::new();
        q.push(100, "tick");
        assert_eq!(q.pop(), Some((100, "tick"))); // cur = 100
        let edge = 100 + WINDOW as Cycle;
        q.push(edge - 1, "inside"); // last wheel cycle
        q.push(edge, "edge"); // first far cycle
        q.push(edge + 1, "outside");
        assert_eq!(q.far_len, 2, "cur + WINDOW and beyond must go to the far map");
        assert_eq!(q.near_len, 1, "cur + WINDOW - 1 still fits the wheel");
        assert_eq!(q.pop(), Some((edge - 1, "inside")));
        assert_eq!(q.pop(), Some((edge, "edge")));
        assert_eq!(q.pop(), Some((edge + 1, "outside")));
        assert_eq!(q.pop(), None);
    }

    /// The occupancy scan wraps the wheel: with the cursor parked
    /// mid-wheel, an event whose slot index is *below* the cursor's
    /// (cycle ≥ a full word past it, modulo `WINDOW`) must still be
    /// found, at its true cycle.
    #[test]
    fn occupancy_scan_wraps_the_wheel() {
        let mut q = CalendarQueue::new();
        q.push(100, "tick");
        assert_eq!(q.pop(), Some((100, "tick"))); // cur = 100, slot 100
        let wrapped = 100 + WINDOW as Cycle - 12; // slot 88 < slot 100
        q.push(wrapped, "wrapped");
        assert_eq!(q.pop(), Some((wrapped, "wrapped")));
        // And the bit cleared on drain: a later same-slot cycle is not
        // served early off a stale bit.
        let next_lap = wrapped + WINDOW as Cycle;
        q.push(next_lap, "far"); // routes far, migrates on approach
        q.push(wrapped + 1, "near");
        assert_eq!(q.pop(), Some((wrapped + 1, "near")));
        assert_eq!(q.pop(), Some((next_lap, "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_spans_both_levels() {
        let mut q = CalendarQueue::new();
        q.push(1, ());
        q.push(1_000_000, ());
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 0);
    }
}
