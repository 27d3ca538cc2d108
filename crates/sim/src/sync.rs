//! Abstract synchronization manager: barriers and queued locks.
//!
//! The paper's *Synchronization* completion-time component is the time
//! cores spend blocked on barriers and locks (§4.4). Lock and barrier
//! *variables* are managed abstractly (see DESIGN.md substitutions); the
//! data accessed inside critical sections still runs through the full
//! coherence protocol, which is where the paper's sync-time reductions come
//! from ("reducing these components may decrease synchronization time as
//! well if the responsible memory accesses lie within the critical
//! section").
//!
//! Releases can be *zero-cycle*: the last barrier arrival (or an unlock)
//! wakes cross-tile waiters at the very cycle it is dispatched.

use std::collections::{HashMap, VecDeque};

use lacc_model::{CoreId, Cycle};

/// Outcome of an acquire/arrive call.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SyncOutcome {
    /// The caller proceeds immediately.
    Proceed,
    /// The caller blocks; it will be woken by a later event.
    Blocked,
    /// The caller's arrival released these cores at the given cycle (the
    /// caller itself proceeds too).
    Release(Vec<(CoreId, Cycle)>),
}

#[derive(Clone, Debug, Default)]
struct BarrierState {
    waiting: Vec<(CoreId, Cycle)>,
}

#[derive(Clone, Debug, Default)]
struct LockState {
    holder: Option<CoreId>,
    queue: VecDeque<(CoreId, Cycle)>,
}

/// Barriers and locks for one simulation.
#[derive(Clone, Debug)]
pub struct SyncManager {
    participants: usize,
    barriers: HashMap<u32, BarrierState>,
    locks: HashMap<u32, LockState>,
}

impl SyncManager {
    /// Creates a manager where each barrier waits for `participants` cores.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is zero.
    #[must_use]
    pub fn new(participants: usize) -> Self {
        assert!(participants > 0, "barriers need at least one participant");
        SyncManager { participants, barriers: HashMap::new(), locks: HashMap::new() }
    }

    /// Core `core` arrives at barrier `id` at its local cycle `now`.
    ///
    /// When the last participant arrives, everyone — **including the
    /// caller** — is released at the maximum arrival time. (Core clocks are
    /// laxly synchronized, so the final arriver in processing order may not
    /// hold the maximum local clock.)
    pub fn barrier_arrive(&mut self, id: u32, core: CoreId, now: Cycle) -> SyncOutcome {
        let b = self.barriers.entry(id).or_default();
        b.waiting.push((core, now));
        if b.waiting.len() == self.participants {
            let release = b.waiting.iter().map(|&(_, t)| t).max().unwrap_or(now);
            let released = b.waiting.drain(..).map(|(c, _)| (c, release)).collect();
            SyncOutcome::Release(released)
        } else {
            SyncOutcome::Blocked
        }
    }

    /// Core `core` tries to acquire lock `id` at its local cycle `now`.
    pub fn acquire(&mut self, id: u32, core: CoreId, now: Cycle) -> SyncOutcome {
        let l = self.locks.entry(id).or_default();
        if l.holder.is_none() {
            l.holder = Some(core);
            SyncOutcome::Proceed
        } else {
            l.queue.push_back((core, now));
            SyncOutcome::Blocked
        }
    }

    /// Core `core` releases lock `id` at its local cycle `now`; the head
    /// waiter (if any) is woken at `max(now, its arrival)`.
    ///
    /// # Panics
    ///
    /// Panics if lock `id` was never acquired or `core` does not hold it
    /// (a workload bug); the message names the lock, the core and `now`.
    pub fn release(&mut self, id: u32, core: CoreId, now: Cycle) -> SyncOutcome {
        let l = self
            .locks
            .get_mut(&id)
            .unwrap_or_else(|| panic!("release of unknown lock {id} by {core} at cycle {now}"));
        assert!(
            l.holder == Some(core),
            "release by non-holder: lock {id} released by {core} at cycle {now}, held by {}",
            l.holder.map_or_else(|| "no core".to_string(), |h| h.to_string()),
        );
        match l.queue.pop_front() {
            None => {
                l.holder = None;
                SyncOutcome::Proceed
            }
            Some((next, arrived)) => {
                l.holder = Some(next);
                SyncOutcome::Release(vec![(next, now.max(arrived))])
            }
        }
    }

    /// Number of cores currently blocked (diagnostics / deadlock checks).
    #[must_use]
    pub fn blocked_count(&self) -> usize {
        self.barriers.values().map(|b| b.waiting.len()).sum::<usize>()
            + self.locks.values().map(|l| l.queue.len()).sum::<usize>()
    }

    /// Appends a canonical encoding of barrier/lock occupancy to `out`,
    /// remapping core indices through `map` (the model checker's
    /// symmetry-reduction hook).
    ///
    /// Variables are emitted sorted by id; waiter lists and lock queues in
    /// list order (arrival order is release order, so it is behavioral).
    /// Arrival cycles are excluded — the checker abstracts timing.
    pub fn encode_state(&self, out: &mut Vec<u64>, map: &mut dyn FnMut(usize) -> usize) {
        let mut barrier_ids: Vec<u32> = self.barriers.keys().copied().collect();
        barrier_ids.sort_unstable();
        out.push(barrier_ids.len() as u64);
        for id in barrier_ids {
            let b = &self.barriers[&id];
            out.push(u64::from(id));
            out.push(b.waiting.len() as u64);
            out.extend(b.waiting.iter().map(|&(c, _)| map(c.index()) as u64));
        }
        let mut lock_ids: Vec<u32> = self.locks.keys().copied().collect();
        lock_ids.sort_unstable();
        out.push(lock_ids.len() as u64);
        for id in lock_ids {
            let l = &self.locks[&id];
            out.push(u64::from(id));
            out.push(l.holder.map_or(u64::MAX, |c| map(c.index()) as u64));
            out.push(l.queue.len() as u64);
            out.extend(l.queue.iter().map(|&(c, _)| map(c.index()) as u64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: usize) -> CoreId {
        CoreId::new(n)
    }

    #[test]
    fn barrier_releases_at_max_arrival() {
        let mut s = SyncManager::new(3);
        assert_eq!(s.barrier_arrive(0, c(0), 100), SyncOutcome::Blocked);
        assert_eq!(s.barrier_arrive(0, c(1), 250), SyncOutcome::Blocked);
        // The trigger itself arrived at 180 < 250: it too must wait to 250.
        let out = s.barrier_arrive(0, c(2), 180);
        assert_eq!(out, SyncOutcome::Release(vec![(c(0), 250), (c(1), 250), (c(2), 250)]));
        // Barrier is reusable.
        assert_eq!(s.barrier_arrive(0, c(0), 300), SyncOutcome::Blocked);
    }

    #[test]
    fn single_participant_barrier_never_blocks() {
        let mut s = SyncManager::new(1);
        assert_eq!(s.barrier_arrive(7, c(0), 5), SyncOutcome::Release(vec![(c(0), 5)]));
    }

    #[test]
    fn lock_hands_off_in_fifo_order() {
        let mut s = SyncManager::new(4);
        assert_eq!(s.acquire(1, c(0), 10), SyncOutcome::Proceed);
        assert_eq!(s.acquire(1, c(1), 20), SyncOutcome::Blocked);
        assert_eq!(s.acquire(1, c(2), 30), SyncOutcome::Blocked);
        // Holder releases at 50: c1 wakes at max(50, 20) = 50.
        assert_eq!(s.release(1, c(0), 50), SyncOutcome::Release(vec![(c(1), 50)]));
        // c1 releases at 45?? it can only release after waking at 50; say 60.
        assert_eq!(s.release(1, c(1), 60), SyncOutcome::Release(vec![(c(2), 60)]));
        assert_eq!(s.release(1, c(2), 70), SyncOutcome::Proceed);
        // Lock is free again.
        assert_eq!(s.acquire(1, c(3), 80), SyncOutcome::Proceed);
    }

    #[test]
    fn waiter_that_arrived_late_wakes_at_its_arrival() {
        let mut s = SyncManager::new(2);
        s.acquire(0, c(0), 0);
        assert_eq!(s.acquire(0, c(1), 500), SyncOutcome::Blocked);
        // Released at 100 but the waiter only arrived at 500.
        assert_eq!(s.release(0, c(0), 100), SyncOutcome::Release(vec![(c(1), 500)]));
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn release_by_non_holder_panics() {
        let mut s = SyncManager::new(2);
        s.acquire(0, c(0), 0);
        let _ = s.release(0, c(1), 10);
    }

    #[test]
    #[should_panic(expected = "release of unknown lock 3 by core0 at cycle 10")]
    fn release_of_unknown_lock_names_lock_core_and_cycle() {
        let mut s = SyncManager::new(2);
        let _ = s.release(3, c(0), 10);
    }

    #[test]
    fn blocked_count_tracks_waiters() {
        let mut s = SyncManager::new(3);
        s.barrier_arrive(0, c(0), 0);
        s.acquire(0, c(1), 0);
        s.acquire(0, c(2), 0);
        assert_eq!(s.blocked_count(), 2); // one barrier waiter + one lock waiter
    }
}
