//! The private L1 cache with the paper's tag extensions (Figure 5).
//!
//! Each L1 line carries, beyond MESI state and data: the **private
//! utilization counter** (incremented on every hit, initialized to 1 on
//! install) and the **last-access timestamp** used by the Timestamp
//! classifier. On a miss the L1 computes the [`RequestHints`] — the minimum
//! last-access time over the target set and whether the set has an invalid
//! way — which travel to the directory with the request (§3.2–3.3).
//!
//! §3.6 notes the utilization update costs no extra cache access: the tag
//! array is already written on every hit to update the LRU state; the
//! 2-bit counter rides along.
//!
//! Line content lives in the simulator's shared [`DataSlab`]; the tag
//! array stores only the 8-byte [`DataRef`] handle. The cache owns one
//! reference per valid line: [`L1Cache::install`] takes ownership of the
//! granted handle, removal paths ([`L1Cache::install`]'s victim,
//! [`L1Cache::process_inv`]) hand it back to the caller, and stores go
//! through [`DataSlab::make_mut`] so a write to a line whose slot is
//! aliased (e.g. by the home's resident L2 copy) never leaks to the other
//! owner.

use lacc_cache::{DataRef, DataSlab, SetAssocCache};
use lacc_model::{CacheConfig, Cycle, LineAddr};

use crate::classifier::RequestHints;
use crate::mesi::MesiState;

/// One valid L1 line (Figure 5's extended tag + the data handle).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct L1Line {
    /// MESI state of this copy.
    pub mesi: MesiState,
    /// Private utilization: accesses since install (§3.2). The simulator
    /// tracks the full value for the Figure 1–2 histograms; hardware only
    /// needs `ceil(log2(PCT))` bits.
    pub utilization: u32,
    /// Cycle of the most recent access (Timestamp classifier).
    pub last_access: Cycle,
    /// The line's eight words (slab handle; one reference owned by the
    /// cache while the line is valid).
    pub data: DataRef,
}

/// A line displaced by an install; its utilization travels to the
/// directory in the eviction notify.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EvictedL1Line {
    /// Which line was evicted.
    pub line: LineAddr,
    /// `true` if the copy was Modified (data must be written back).
    pub dirty: bool,
    /// Final private utilization.
    pub utilization: u32,
    /// The line content. Ownership of this handle transfers to the
    /// caller: ship it (dirty) or release it (clean).
    pub data: DataRef,
}

/// Result of a store lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreOutcome {
    /// Write completed (M, or silent E→M upgrade).
    Done,
    /// The line is present read-only: an *upgrade miss* (S→M request, no
    /// data transfer).
    NeedsUpgrade,
    /// The line is absent: full write miss.
    Miss,
}

/// A private L1 cache (data or instruction side).
#[derive(Clone, Debug)]
pub struct L1Cache {
    tags: SetAssocCache<L1Line>,
}

impl L1Cache {
    /// Creates an L1 of the given geometry.
    #[must_use]
    pub fn new(cfg: &CacheConfig, line_bytes: usize) -> Self {
        L1Cache { tags: SetAssocCache::new(cfg.num_sets(line_bytes), cfg.associativity) }
    }

    /// Number of valid lines (tests).
    #[must_use]
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// `true` when the cache holds no valid line.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// `true` if a valid copy of `line` is resident. Touches neither LRU
    /// nor the access timestamps.
    #[must_use]
    pub fn holds(&self, line: LineAddr) -> bool {
        self.tags.contains(line)
    }

    /// Looks up a load. On a hit: bumps utilization, refreshes LRU and the
    /// last-access timestamp, and returns the word. On a miss: `None`.
    pub fn load(
        &mut self,
        line: LineAddr,
        word: usize,
        now: Cycle,
        slab: &DataSlab,
    ) -> Option<u64> {
        let l = self.tags.get_mut(line)?;
        l.utilization += 1;
        l.last_access = now;
        Some(slab.get(l.data).word(word))
    }

    /// Looks up a store. In M/E the word is written (E upgrades to M
    /// silently) and utilization bumps; in S the store must first obtain
    /// write permission (upgrade miss) — the counter bump happens when
    /// [`L1Cache::apply_upgrade`] completes the access. Writes go through
    /// [`DataSlab::make_mut`], so an aliased slot splits instead of
    /// leaking the store to its other owner.
    pub fn store(
        &mut self,
        line: LineAddr,
        word: usize,
        value: u64,
        now: Cycle,
        slab: &mut DataSlab,
    ) -> StoreOutcome {
        match self.tags.get_mut(line) {
            None => StoreOutcome::Miss,
            Some(l) => match l.mesi {
                MesiState::Modified | MesiState::Exclusive => {
                    l.mesi = MesiState::Modified;
                    l.utilization += 1;
                    l.last_access = now;
                    l.data = slab.make_mut(l.data);
                    slab.get_mut(l.data).set_word(word, value);
                    StoreOutcome::Done
                }
                MesiState::Shared => StoreOutcome::NeedsUpgrade,
            },
        }
    }

    /// Computes the §3.2/§3.3 hints for a miss on `line`: minimum
    /// last-access over the valid lines of the target set, and whether the
    /// set has an invalid way (in which case the minimum is reported as 0
    /// and the Timestamp check trivially passes).
    #[must_use]
    pub fn hints_for(&self, line: LineAddr) -> RequestHints {
        let set = self.tags.set_index(line);
        let has_invalid = self.tags.free_ways_in_set_of(line) > 0;
        if has_invalid {
            return RequestHints { set_min_last_access: 0, set_has_invalid: true };
        }
        let min = self.tags.iter_set(set).map(|(_, _, l)| l.last_access).min().unwrap_or(0);
        RequestHints { set_min_last_access: min, set_has_invalid: false }
    }

    /// Installs a granted line (utilization starts at 1 — the access that
    /// caused the miss), taking ownership of the `data` handle. Returns
    /// the displaced victim, if any, whose handle (and eviction notify)
    /// the caller must now deal with.
    pub fn install(
        &mut self,
        line: LineAddr,
        mesi: MesiState,
        data: DataRef,
        now: Cycle,
    ) -> Option<EvictedL1Line> {
        // An install over an already-valid line would silently drop its
        // handle (`SetAssocCache::insert` replaces in place). The protocol
        // never grants a line the requester still holds.
        debug_assert!(self.tags.get(line).is_none(), "install over valid line would leak handle");
        let fresh = L1Line { mesi, utilization: 1, last_access: now, data };
        let out = self.tags.insert(line, fresh);
        out.evicted.map(|(vline, v)| EvictedL1Line {
            line: vline,
            dirty: v.mesi.is_dirty(),
            utilization: v.utilization,
            data: v.data,
        })
    }

    /// Completes an upgrade: S→M, performs the pending store (through
    /// [`DataSlab::make_mut`] — an S copy usually aliases the home's
    /// resident slot), bumps utilization.
    ///
    /// # Panics
    ///
    /// Panics if the line is absent or not in S (the protocol guarantees
    /// the upgrade reply only arrives while the S copy is held: the
    /// directory serializes writes to the line).
    pub fn apply_upgrade(
        &mut self,
        line: LineAddr,
        word: usize,
        value: u64,
        now: Cycle,
        slab: &mut DataSlab,
    ) {
        let l = self.tags.get_mut(line).expect("upgrade for absent line");
        assert_eq!(l.mesi, MesiState::Shared, "upgrade of non-shared line");
        l.mesi = MesiState::Modified;
        l.utilization += 1;
        l.last_access = now;
        l.data = slab.make_mut(l.data);
        slab.get_mut(l.data).set_word(word, value);
    }

    /// Processes an invalidation: removes the copy, returning its final
    /// utilization and its data handle — ownership transfers to the
    /// caller (ship it if dirty, release it if clean). `None` when the
    /// copy is already gone (the eviction notify is in flight and serves as
    /// the response — the core must *not* ack, §3.1/DESIGN.md).
    pub fn process_inv(&mut self, line: LineAddr) -> Option<EvictedL1Line> {
        self.tags.remove(line).map(|l| EvictedL1Line {
            line,
            dirty: l.mesi.is_dirty(),
            utilization: l.utilization,
            data: l.data,
        })
    }

    /// Processes a downgrade (synchronous write-back request): M/E→S,
    /// returning whether the copy was dirty and the **resident** data
    /// handle — the cache keeps its reference (the line stays valid in S),
    /// so a caller that wants to ship the data must
    /// [`DataSlab::retain`] it. `None` when the copy is gone (eviction
    /// raced; the notify carries the data).
    pub fn process_downgrade(&mut self, line: LineAddr) -> Option<(bool, DataRef)> {
        let l = self.tags.peek_mut(line)?;
        let was_dirty = l.mesi.is_dirty();
        let data = l.data;
        l.mesi = MesiState::Shared;
        Some((was_dirty, data))
    }

    /// Iterates over valid lines (invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &L1Line)> {
        self.tags.iter()
    }

    /// Number of sets in the tag array.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.tags.num_sets()
    }

    /// Number of tag-array sets allocated so far (a set is allocated on
    /// its first fill).
    #[must_use]
    pub fn allocated_sets(&self) -> usize {
        self.tags.allocated_sets()
    }

    /// The set a line maps to.
    #[must_use]
    pub fn set_index(&self, line: LineAddr) -> usize {
        self.tags.set_index(line)
    }

    /// Iterates over the valid ways of one set as `(line, lru_stamp,
    /// line_state)`. Stamps order ways by recency (larger = more recent);
    /// the model checker canonicalizes them to relative ranks.
    pub fn iter_set(&self, set: usize) -> impl Iterator<Item = (LineAddr, u64, &L1Line)> {
        self.tags.iter_set(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacc_cache::LineData;

    fn cache() -> L1Cache {
        // 2 sets x 2 ways.
        L1Cache::new(&CacheConfig::new(256, 2, 1), 64)
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    fn zeroed(slab: &mut DataSlab) -> DataRef {
        slab.alloc(LineData::zeroed())
    }

    #[test]
    fn load_miss_then_hit_counts_utilization() {
        let mut slab = DataSlab::new();
        let mut c = cache();
        assert_eq!(c.load(line(0), 0, 1, &slab), None);
        let d = zeroed(&mut slab);
        c.install(line(0), MesiState::Exclusive, d, 2);
        assert_eq!(c.tags.get(line(0)).unwrap().utilization, 1, "install counts as first use");
        assert_eq!(c.load(line(0), 0, 3, &slab), Some(0));
        assert_eq!(c.load(line(0), 1, 4, &slab), Some(0));
        assert_eq!(c.tags.get(line(0)).unwrap().utilization, 3);
    }

    #[test]
    fn store_in_e_upgrades_silently() {
        let mut slab = DataSlab::new();
        let mut c = cache();
        let d = zeroed(&mut slab);
        c.install(line(0), MesiState::Exclusive, d, 0);
        assert_eq!(c.store(line(0), 2, 99, 1, &mut slab), StoreOutcome::Done);
        assert_eq!(c.tags.get(line(0)).unwrap().mesi, MesiState::Modified);
        assert_eq!(c.load(line(0), 2, 2, &slab), Some(99));
    }

    #[test]
    fn store_in_s_needs_upgrade() {
        let mut slab = DataSlab::new();
        let mut c = cache();
        let d = zeroed(&mut slab);
        c.install(line(0), MesiState::Shared, d, 0);
        assert_eq!(c.store(line(0), 0, 1, 1, &mut slab), StoreOutcome::NeedsUpgrade);
        assert_eq!(c.tags.get(line(0)).unwrap().utilization, 1, "pending store not yet counted");
        c.apply_upgrade(line(0), 0, 1, 2, &mut slab);
        assert_eq!(c.tags.get(line(0)).unwrap().mesi, MesiState::Modified);
        assert_eq!(c.tags.get(line(0)).unwrap().utilization, 2);
        assert_eq!(c.load(line(0), 0, 3, &slab), Some(1));
    }

    /// A store to a line whose slot aliases another owner's copy must
    /// split the slot, not write through it.
    #[test]
    fn store_on_aliased_slot_is_copy_on_write() {
        let mut slab = DataSlab::new();
        let mut c = cache();
        let home_copy = zeroed(&mut slab);
        let grant = slab.retain(home_copy);
        c.install(line(0), MesiState::Exclusive, grant, 0);
        assert_eq!(c.store(line(0), 0, 7, 1, &mut slab), StoreOutcome::Done);
        assert_eq!(slab.get(home_copy).word(0), 0, "home's copy untouched");
        assert_eq!(c.load(line(0), 0, 2, &slab), Some(7));
        assert_eq!(slab.stats().cow_clones, 1);
    }

    #[test]
    fn hints_report_invalid_way() {
        let mut slab = DataSlab::new();
        let mut c = cache();
        let h = c.hints_for(line(0));
        assert!(h.set_has_invalid);
        // Fill set 0 (lines 0 and 2 map to set 0 of 2 sets).
        let d0 = zeroed(&mut slab);
        let d2 = zeroed(&mut slab);
        c.install(line(0), MesiState::Shared, d0, 5);
        c.install(line(2), MesiState::Shared, d2, 9);
        let h = c.hints_for(line(4));
        assert!(!h.set_has_invalid);
        assert_eq!(h.set_min_last_access, 5);
        // Touching line 0 raises the set minimum to 9.
        c.load(line(0), 0, 20, &slab);
        assert_eq!(c.hints_for(line(4)).set_min_last_access, 9);
    }

    #[test]
    fn install_evicts_lru_and_reports_dirtiness() {
        let mut slab = DataSlab::new();
        let mut c = cache();
        let d0 = zeroed(&mut slab);
        c.install(line(0), MesiState::Exclusive, d0, 0);
        c.store(line(0), 0, 7, 1, &mut slab);
        let d2 = zeroed(&mut slab);
        c.install(line(2), MesiState::Shared, d2, 2);
        // Set 0 is full; line 0 is LRU... but line 0 was touched at t=1 by
        // the store, line 2 installed at t=2, so line 0 is LRU.
        let d4 = zeroed(&mut slab);
        let v = c.install(line(4), MesiState::Shared, d4, 3).unwrap();
        assert_eq!(v.line, line(0));
        assert!(v.dirty);
        assert_eq!(v.utilization, 2);
        assert_eq!(slab.get(v.data).word(0), 7);
        slab.release(v.data);
    }

    #[test]
    fn invalidation_returns_utilization_and_data() {
        let mut slab = DataSlab::new();
        let mut c = cache();
        let d = zeroed(&mut slab);
        c.install(line(0), MesiState::Exclusive, d, 0);
        c.store(line(0), 3, 42, 1, &mut slab);
        let v = c.process_inv(line(0)).unwrap();
        assert!(v.dirty);
        assert_eq!(v.utilization, 2);
        assert_eq!(slab.get(v.data).word(3), 42);
        slab.release(v.data);
        assert_eq!(c.process_inv(line(0)), None, "second invalidation finds nothing");
        assert_eq!(slab.total_refs(), 0, "cache handed its only reference back");
    }

    #[test]
    fn downgrade_keeps_line_shared_and_resident() {
        let mut slab = DataSlab::new();
        let mut c = cache();
        let d = zeroed(&mut slab);
        c.install(line(0), MesiState::Exclusive, d, 0);
        c.store(line(0), 0, 5, 1, &mut slab);
        let (dirty, data) = c.process_downgrade(line(0)).unwrap();
        assert!(dirty);
        assert_eq!(slab.get(data).word(0), 5);
        assert_eq!(c.tags.get(line(0)).unwrap().mesi, MesiState::Shared);
        assert_eq!(slab.refs(data), 1, "handle still owned by the cache, not the caller");
        // A second downgrade reports clean.
        let (dirty, _) = c.process_downgrade(line(0)).unwrap();
        assert!(!dirty);
    }

    #[test]
    #[should_panic(expected = "absent line")]
    fn upgrade_of_absent_line_panics() {
        let mut slab = DataSlab::new();
        let mut c = cache();
        c.apply_upgrade(line(0), 0, 1, 0, &mut slab);
    }
}
