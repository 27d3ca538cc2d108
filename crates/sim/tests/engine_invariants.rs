//! Invariants the engine refactor must preserve.
//!
//! 1. Event-queue determinism: the calendar queue yields events in exactly
//!    `(cycle, schedule order)` — property-tested against a reference
//!    `BinaryHeap<Reverse<(cycle, seq)>>` model (the structure it
//!    replaced).
//! 2. Home queueing fairness under contention, observed end to end: a
//!    line hammered by every core stays coherent, charges L2 waiting
//!    time, and reproduces bit-identically (the unit test
//!    `queued_requests_start_in_arrival_order` in `engine/home_side.rs`
//!    checks the per-line start order directly).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use lacc_model::{Addr, SystemConfig};
use lacc_sim::engine::queue::{CalendarQueue, WINDOW};
use lacc_sim::trace::{default_instr_base, TraceOp, VecTrace, Workload};
use lacc_sim::Simulator;

#[test]
fn equal_cycle_events_fire_in_schedule_order() {
    let mut q = CalendarQueue::new();
    for id in 0..100u32 {
        q.push(42, id);
    }
    for expect in 0..100u32 {
        assert_eq!(q.pop(), Some((42, expect)));
    }
    assert!(q.is_empty());
}

proptest! {
    /// Under arbitrary interleavings of schedules (with delays spanning
    /// the near window and the far map, including zero-delay self-
    /// rescheduling) and pops, the calendar queue pops exactly what the
    /// reference heap pops.
    #[test]
    fn calendar_queue_matches_binary_heap(
        ops in proptest::collection::vec((0u64..2000, proptest::bool::ANY), 1..400)
    ) {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for (delay, push) in ops {
            if push {
                q.push(now + delay, seq);
                heap.push(Reverse((now + delay, seq)));
                seq += 1;
            } else {
                let want = heap.pop().map(|Reverse((at, s))| (at, s));
                let got = q.pop();
                prop_assert_eq!(got, want);
                if let Some((at, _)) = got {
                    now = at; // time is monotonic: later pushes are >= now
                }
            }
            prop_assert_eq!(q.len(), heap.len());
        }
        // Drain what remains: total order must agree to the end.
        while let Some(Reverse(want)) = heap.pop() {
            prop_assert_eq!(q.pop(), Some(want));
        }
        prop_assert_eq!(q.pop(), None);
    }

    /// The horizon boundary, pinned: a push at exactly `now + WINDOW`
    /// must take the far path — `near[at % WINDOW]` is the bucket
    /// currently serving `now`, so routing it near would file the event
    /// one full rotation early. This generator concentrates pushes on
    /// the three delays that straddle the boundary (plus short fillers
    /// so pops land at awkward cursor positions) and checks the total
    /// order against the reference heap.
    #[test]
    fn horizon_boundary_pushes_match_binary_heap(
        ops in proptest::collection::vec((0u8..8, proptest::bool::ANY), 1..300)
    ) {
        let w = WINDOW as u64;
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for (pick, push) in ops {
            if push {
                // Mostly boundary-straddling delays, a few short ones.
                let delay = match pick {
                    0 | 1 => w - 1,
                    2 | 3 => w,
                    4 | 5 => w + 1,
                    6 => 0,
                    _ => 7,
                };
                q.push(now + delay, seq);
                heap.push(Reverse((now + delay, seq)));
                seq += 1;
            } else {
                let want = heap.pop().map(|Reverse((at, s))| (at, s));
                let got = q.pop();
                prop_assert_eq!(got, want);
                if let Some((at, _)) = got {
                    now = at;
                }
            }
        }
        while let Some(Reverse(want)) = heap.pop() {
            prop_assert_eq!(q.pop(), Some(want));
        }
        prop_assert_eq!(q.pop(), None);
    }
}

/// Builds a workload where every core hammers one contended line (plus a
/// private line each, so caches see traffic), synchronized by a barrier.
fn contended_workload(cores: usize, rounds: usize) -> Workload {
    let hot = 0x4000u64; // one shared line
    let traces = (0..cores)
        .map(|c| {
            let mut ops = vec![TraceOp::Barrier { id: 0 }];
            for r in 0..rounds {
                ops.push(TraceOp::Store {
                    addr: Addr::new(hot),
                    value: (c * rounds + r) as u64 + 1,
                });
                ops.push(TraceOp::Load { addr: Addr::new(hot + 8) });
                ops.push(TraceOp::Load { addr: Addr::new(0x8000 + (c as u64) * 64) });
                ops.push(TraceOp::Compute(3));
            }
            VecTrace::new(ops)
        })
        .collect();
    Workload {
        name: "contended".into(),
        traces,
        regions: vec![],
        instr_lines: 0,
        instr_base: default_instr_base(),
    }
}

#[test]
fn contended_line_is_fifo_fair_coherent_and_deterministic() {
    let run = || {
        let w = contended_workload(8, 12);
        Simulator::new(SystemConfig::small_for_tests(8), w).unwrap().run()
    };
    let a = run();
    // Coherence under heavy same-line contention is exactly the property
    // FIFO service of queued requests protects (a starved or reordered
    // request would read a stale serialization).
    assert_eq!(a.monitor.violations, 0);
    assert!(a.breakdown.l2_waiting > 0, "8 cores hammering one line must queue at the home");
    // Queued-request service order is part of simulated time: any
    // nondeterminism in the queues or the event order shows up here.
    let b = run();
    assert_eq!(a.completion_time, b.completion_time);
    assert_eq!(a.breakdown, b.breakdown);
    assert_eq!(a.energy_counts, b.energy_counts);
}
