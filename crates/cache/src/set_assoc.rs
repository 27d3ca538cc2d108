//! A generic set-associative tag/metadata array.
//!
//! [`SetAssocCache<M>`] maps [`LineAddr`]s to per-line metadata `M` under a
//! fixed geometry (sets × ways) with exact LRU replacement. It is the substrate
//! for both the private L1 caches and the shared L2 slices of the simulated
//! machine; the protocol crates choose `M` (MESI state, utilization
//! counters, timestamps, line data, ...).

use std::fmt;

use lacc_model::LineAddr;

#[derive(Clone, Debug)]
struct Way<M> {
    line: LineAddr,
    meta: M,
    stamp: u64,
}

/// Result of [`SetAssocCache::insert`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InsertOutcome<M> {
    /// The line (and its metadata) evicted to make room, if the set was
    /// full of valid, evictable lines.
    pub evicted: Option<(LineAddr, M)>,
}

/// A set-associative array of per-line metadata.
///
/// Storage follows use: a set holds no ways until its first fill, which
/// allocates all `assoc` of them at once. Way positions, recency stamps
/// and victims are therefore the same as if every set had been allocated
/// up front; only memory differs (a Table-1 L2 slice is 4096 sets, most of
/// which a short run never fills).
///
/// Recency is tracked with a monotonically increasing use stamp per way:
/// [`SetAssocCache::touch`], [`SetAssocCache::get_mut`] and
/// [`SetAssocCache::insert`] refresh it, so LRU victims are exact (not
/// pseudo-LRU), matching the paper's simulation model: the §3.2
/// Timestamp check reasons about the L1's LRU policy, and LRU is the only
/// policy either cache level uses.
///
/// # Examples
///
/// ```
/// use lacc_cache::SetAssocCache;
/// use lacc_model::LineAddr;
///
/// let mut c: SetAssocCache<&'static str> = SetAssocCache::new(4, 2);
/// c.insert(LineAddr::new(0), "a");
/// assert_eq!(c.get(LineAddr::new(0)), Some(&"a"));
/// assert_eq!(c.remove(LineAddr::new(0)), Some("a"));
/// assert!(!c.contains(LineAddr::new(0)));
/// ```
#[derive(Clone)]
pub struct SetAssocCache<M> {
    /// One entry per set: empty until the set's first fill, then exactly
    /// `assoc` ways.
    sets: Vec<Vec<Option<Way<M>>>>,
    num_sets: usize,
    assoc: usize,
    next_stamp: u64,
}

impl<M> SetAssocCache<M> {
    /// Creates an empty cache with `num_sets` sets of `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two or `assoc` is zero.
    #[must_use]
    pub fn new(num_sets: usize, assoc: usize) -> Self {
        assert!(num_sets.is_power_of_two(), "num_sets must be a power of two");
        assert!(assoc > 0, "associativity must be positive");
        SetAssocCache {
            sets: (0..num_sets).map(|_| Vec::new()).collect(),
            num_sets,
            assoc,
            next_stamp: 1,
        }
    }

    /// A cache with every set allocated up front: the reference the lazy
    /// allocation is checked against.
    #[cfg(test)]
    fn eager(num_sets: usize, assoc: usize) -> Self {
        let mut c = SetAssocCache::new(num_sets, assoc);
        for ways in &mut c.sets {
            *ways = (0..assoc).map(|_| None).collect();
        }
        c
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Ways per set.
    #[must_use]
    pub fn associativity(&self) -> usize {
        self.assoc
    }

    /// Number of sets that hold ways (have been filled at least once).
    #[must_use]
    pub fn allocated_sets(&self) -> usize {
        self.sets.iter().filter(|ways| !ways.is_empty()).count()
    }

    /// Total line capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.num_sets * self.assoc
    }

    /// Number of valid lines currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sets.iter().flatten().filter(|w| w.is_some()).count()
    }

    /// `true` when no line is valid.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The set a line maps to.
    #[must_use]
    pub fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() as usize) & (self.num_sets - 1)
    }

    fn find(&self, line: LineAddr) -> Option<usize> {
        let set = self.set_index(line);
        self.sets[set].iter().position(|w| w.as_ref().is_some_and(|w| w.line == line))
    }

    /// `true` if the line is valid in the cache. Does not update recency.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Metadata of a valid line. Does not update recency.
    #[must_use]
    pub fn get(&self, line: LineAddr) -> Option<&M> {
        let set = self.set_index(line);
        self.find(line).map(|w| &self.sets[set][w].as_ref().unwrap().meta)
    }

    /// Mutable metadata of a valid line, refreshing its recency stamp (this
    /// models the tag-array write that every hit performs, §3.6).
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut M> {
        let set = self.set_index(line);
        let way = self.find(line)?;
        let stamp = self.bump_stamp();
        let w = self.sets[set][way].as_mut().unwrap();
        w.stamp = stamp;
        Some(&mut w.meta)
    }

    /// Mutable metadata of a valid line *without* touching recency (for
    /// protocol actions such as invalidations that must not refresh LRU).
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut M> {
        let set = self.set_index(line);
        let way = self.find(line)?;
        Some(&mut self.sets[set][way].as_mut().unwrap().meta)
    }

    /// Refreshes the recency stamp of a valid line; returns `false` if the
    /// line is not present.
    pub fn touch(&mut self, line: LineAddr) -> bool {
        let set = self.set_index(line);
        if let Some(way) = self.find(line) {
            let stamp = self.bump_stamp();
            self.sets[set][way].as_mut().unwrap().stamp = stamp;
            true
        } else {
            false
        }
    }

    /// Inserts a line, evicting the least recently used way if the set is
    /// full.
    ///
    /// If the line is already valid its metadata is *replaced* and recency
    /// refreshed; no eviction occurs.
    pub fn insert(&mut self, line: LineAddr, meta: M) -> InsertOutcome<M> {
        let Ok(evicted) = self.try_insert_filtered(line, meta, |_, _| true) else {
            unreachable!("every way is evictable")
        };
        InsertOutcome { evicted }
    }

    /// Inserts a line, evicting the least recently used way among those
    /// for which `evictable` returns `true` (the simulator uses this to
    /// protect lines with in-flight transactions at the L2).
    ///
    /// # Errors
    ///
    /// Returns `Err(meta)` (handing the metadata back) when the set is full
    /// and no way satisfies `evictable`.
    pub fn try_insert_filtered(
        &mut self,
        line: LineAddr,
        meta: M,
        evictable: impl Fn(LineAddr, &M) -> bool,
    ) -> Result<Option<(LineAddr, M)>, M> {
        let set = self.set_index(line);
        let stamp = self.bump_stamp();

        // Refresh in place if already valid.
        if let Some(way) = self.find(line) {
            let w = self.sets[set][way].as_mut().unwrap();
            w.meta = meta;
            w.stamp = stamp;
            return Ok(None);
        }

        // Fill an invalid way first. A set's first fill allocates its ways
        // (an exact-size allocation: `assoc` slots, no growth slack).
        if self.sets[set].is_empty() {
            self.sets[set] = (0..self.assoc).map(|_| None).collect();
        }
        if let Some(way) = self.sets[set].iter().position(Option::is_none) {
            self.sets[set][way] = Some(Way { line, meta, stamp });
            return Ok(None);
        }

        // The least recently used evictable way (stamps are unique).
        let victim = self.sets[set]
            .iter()
            .enumerate()
            .filter_map(|(i, w)| {
                w.as_ref().filter(|w| evictable(w.line, &w.meta)).map(|w| (w.stamp, i))
            })
            .min();
        let Some((_, victim)) = victim else {
            return Err(meta);
        };
        let old = self.sets[set][victim].replace(Way { line, meta, stamp }).unwrap();
        Ok(Some((old.line, old.meta)))
    }

    /// Invalidates a line, returning its metadata.
    pub fn remove(&mut self, line: LineAddr) -> Option<M> {
        let set = self.set_index(line);
        let way = self.find(line)?;
        Some(self.sets[set][way].take().unwrap().meta)
    }

    /// Iterates over the valid lines of one set as `(line, last_use_stamp,
    /// &meta)`.
    ///
    /// # Panics
    ///
    /// Panics if `set >= num_sets`.
    pub fn iter_set(&self, set: usize) -> impl Iterator<Item = (LineAddr, u64, &M)> {
        self.sets[set].iter().flatten().map(|w| (w.line, w.stamp, &w.meta))
    }

    /// Number of invalid (free) ways in the set a line maps to.
    #[must_use]
    pub fn free_ways_in_set_of(&self, line: LineAddr) -> usize {
        match &self.sets[self.set_index(line)] {
            ways if ways.is_empty() => self.assoc,
            ways => ways.iter().filter(|w| w.is_none()).count(),
        }
    }

    /// Iterates over every valid line as `(line, &meta)`.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &M)> {
        self.sets.iter().flatten().flatten().map(|w| (w.line, &w.meta))
    }

    fn bump_stamp(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }
}

impl<M: fmt::Debug> fmt::Debug for SetAssocCache<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SetAssocCache({} sets x {} ways, {} valid)",
            self.num_sets,
            self.assoc,
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn hit_after_insert() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(4, 2);
        assert!(c.insert(line(5), 42).evicted.is_none());
        assert_eq!(c.get(line(5)), Some(&42));
        assert!(c.contains(line(5)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // One set (num_sets = 1): lines 0,1,2 all collide.
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        c.touch(line(0)); // line 1 is now LRU
        let out = c.insert(line(2), 2);
        assert_eq!(out.evicted, Some((line(1), 1)));
        assert!(c.contains(line(0)));
        assert!(c.contains(line(2)));
    }

    #[test]
    fn get_mut_refreshes_recency() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        *c.get_mut(line(0)).unwrap() += 10; // refresh 0
        let out = c.insert(line(2), 2);
        assert_eq!(out.evicted.unwrap().0, line(1));
        assert_eq!(c.get(line(0)), Some(&10));
    }

    #[test]
    fn peek_mut_does_not_refresh_recency() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        *c.peek_mut(line(0)).unwrap() += 1; // 0 stays LRU
        let out = c.insert(line(2), 2);
        assert_eq!(out.evicted.unwrap().0, line(0));
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 1);
        c.insert(line(0), 1);
        let out = c.insert(line(0), 2);
        assert!(out.evicted.is_none());
        assert_eq!(c.get(line(0)), Some(&2));
    }

    #[test]
    fn filtered_insert_skips_protected_ways() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        // Way holding line 0 is LRU but protected; line 1 must go instead.
        let out = c.try_insert_filtered(line(2), 2, |l, _| l != line(0));
        assert_eq!(out.unwrap().unwrap().0, line(1));
    }

    #[test]
    fn filtered_insert_refuses_when_everything_protected() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        let res = c.try_insert_filtered(line(2), 2, |_, _| false);
        assert_eq!(res, Err(2));
        assert!(!c.contains(line(2)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remove_invalidates() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(2, 2);
        c.insert(line(0), 7);
        assert_eq!(c.remove(line(0)), Some(7));
        assert_eq!(c.remove(line(0)), None);
        assert_eq!(c.free_ways_in_set_of(line(0)), 2);
    }

    #[test]
    fn set_mapping_uses_low_bits() {
        let c: SetAssocCache<()> = SetAssocCache::new(8, 1);
        assert_eq!(c.set_index(line(0)), 0);
        assert_eq!(c.set_index(line(9)), 1);
        assert_eq!(c.set_index(line(16)), 0);
    }

    #[test]
    fn iter_set_reports_stamps() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 4);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        let stamps: Vec<u64> = c.iter_set(0).map(|(_, s, _)| s).collect();
        assert_eq!(stamps.len(), 2);
        assert!(stamps[0] < stamps[1]);
    }

    #[test]
    fn sets_are_allocated_on_first_fill() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(8, 2);
        assert_eq!(c.allocated_sets(), 0);
        // Lookups, removals and free-way counts on an untouched set
        // allocate nothing and see every way free.
        assert!(!c.touch(line(3)));
        assert_eq!(c.remove(line(3)), None);
        assert_eq!(c.free_ways_in_set_of(line(3)), 2);
        assert_eq!(c.iter_set(3).count(), 0);
        assert_eq!(c.allocated_sets(), 0);
        c.insert(line(3), 1);
        c.insert(line(11), 2);
        assert_eq!(c.allocated_sets(), 1, "lines 3 and 11 share set 3");
        assert_eq!(c.free_ways_in_set_of(line(3)), 0);
        // Emptying a set keeps its ways.
        c.remove(line(3));
        c.remove(line(11));
        assert_eq!(c.allocated_sets(), 1);
        assert_eq!(c.free_ways_in_set_of(line(3)), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_panics() {
        let _: SetAssocCache<()> = SetAssocCache::new(3, 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The cache never exceeds its capacity and never loses a line
        /// without reporting an eviction.
        #[test]
        fn occupancy_accounting(ops in proptest::collection::vec(0u64..64, 1..200)) {
            let mut c: SetAssocCache<u64> = SetAssocCache::new(4, 2);
            let mut inserted = 0u64;
            let mut evictions = 0u64;
            let mut replaced = 0u64;
            for (i, l) in ops.iter().enumerate() {
                let line = LineAddr::new(*l);
                if c.contains(line) {
                    replaced += 1;
                } else {
                    inserted += 1;
                }
                if c.insert(line, i as u64).evicted.is_some() {
                    evictions += 1;
                }
                prop_assert!(c.len() <= c.capacity());
            }
            prop_assert_eq!(c.len() as u64, inserted - evictions);
            prop_assert_eq!(inserted + replaced, ops.len() as u64);
        }

        /// With a 1-set LRU cache of associativity A, after any sequence of
        /// inserts the cache holds exactly the A most recently used distinct
        /// lines.
        #[test]
        fn lru_keeps_most_recent(ops in proptest::collection::vec(0u64..16, 1..100)) {
            let assoc = 4usize;
            let mut c: SetAssocCache<()> = SetAssocCache::new(1, assoc);
            for l in &ops {
                c.insert(LineAddr::new(*l), ());
            }
            // Reference model: most recent distinct lines, newest first.
            let mut recent: Vec<u64> = Vec::new();
            for l in ops.iter().rev() {
                if !recent.contains(l) {
                    recent.push(*l);
                }
                if recent.len() == assoc {
                    break;
                }
            }
            for l in &recent {
                prop_assert!(c.contains(LineAddr::new(*l)), "missing recent line {l}");
            }
            prop_assert_eq!(c.len(), recent.len());
        }

        /// `try_insert_filtered` agrees with a naive per-set LRU model under
        /// random protection: the victim is the least recently used
        /// unprotected line of its set, a full set of protected lines
        /// refuses the insert and hands the metadata back, and occupancy
        /// matches the model after every operation.
        #[test]
        fn filtered_insert_matches_lru_model(
            ops in proptest::collection::vec((0u64..32, 0u8..4, 0u32..u32::MAX), 1..300)
        ) {
            const SETS: usize = 4;
            const WAYS: usize = 3;
            let mut c: SetAssocCache<u64> = SetAssocCache::new(SETS, WAYS);
            // Per set: `(line, meta)` from least to most recently used.
            let mut model: Vec<Vec<(u64, u64)>> = vec![Vec::new(); SETS];
            for (i, (l, op, mask)) in ops.into_iter().enumerate() {
                let line = LineAddr::new(l);
                let ways = &mut model[l as usize % SETS];
                let pos = ways.iter().position(|&(m, _)| m == l);
                match op {
                    0 => prop_assert_eq!(c.remove(line), pos.map(|p| ways.remove(p).1)),
                    1 => {
                        prop_assert_eq!(c.touch(line), pos.is_some());
                        if let Some(p) = pos {
                            let w = ways.remove(p);
                            ways.push(w);
                        }
                    }
                    _ => {
                        let meta = i as u64;
                        let protected = |m: u64| mask & (1 << (m % 32)) != 0;
                        let got = c.try_insert_filtered(line, meta, |v, _| !protected(v.raw()));
                        if let Some(p) = pos {
                            ways.remove(p);
                            prop_assert_eq!(got, Ok(None));
                            ways.push((l, meta));
                        } else if ways.len() < WAYS {
                            prop_assert_eq!(got, Ok(None));
                            ways.push((l, meta));
                        } else if let Some(v) = ways.iter().position(|&(m, _)| !protected(m)) {
                            let (victim, old) = ways.remove(v);
                            prop_assert_eq!(got, Ok(Some((LineAddr::new(victim), old))));
                            ways.push((l, meta));
                        } else {
                            prop_assert_eq!(got, Err(meta));
                            prop_assert!(!c.contains(line));
                        }
                    }
                }
                prop_assert_eq!(c.len(), model.iter().map(Vec::len).sum::<usize>());
                for (set, ways) in model.iter().enumerate() {
                    let mut held: Vec<(u64, u64, u64)> =
                        c.iter_set(set).map(|(l, stamp, &m)| (stamp, l.raw(), m)).collect();
                    held.sort_unstable();
                    let held: Vec<(u64, u64)> = held.into_iter().map(|(_, l, m)| (l, m)).collect();
                    prop_assert_eq!(&held, ways);
                }
            }
        }

        /// Allocating sets on first fill is invisible: against a cache
        /// whose sets were all allocated up front, every operation returns
        /// the same value and leaves the same ways, stamps, free counts and
        /// length behind.
        #[test]
        fn lazy_sets_match_eager_allocation(
            ops in proptest::collection::vec((0u64..48, 0u8..6, 0u32..u32::MAX), 1..300)
        ) {
            const SETS: usize = 8;
            const WAYS: usize = 3;
            let mut lazy: SetAssocCache<u64> = SetAssocCache::new(SETS, WAYS);
            let mut eager: SetAssocCache<u64> = SetAssocCache::eager(SETS, WAYS);
            for (i, (l, op, mask)) in ops.into_iter().enumerate() {
                let line = LineAddr::new(l);
                let meta = i as u64;
                match op {
                    0 => prop_assert_eq!(lazy.insert(line, meta), eager.insert(line, meta)),
                    1 => {
                        let evictable = |v: LineAddr, _: &u64| mask & (1 << (v.raw() % 32)) != 0;
                        prop_assert_eq!(
                            lazy.try_insert_filtered(line, meta, evictable),
                            eager.try_insert_filtered(line, meta, evictable)
                        );
                    }
                    2 => prop_assert_eq!(lazy.remove(line), eager.remove(line)),
                    3 => {
                        let (a, b) = (lazy.get_mut(line), eager.get_mut(line));
                        prop_assert_eq!(a.as_deref(), b.as_deref());
                        if let (Some(a), Some(b)) = (a, b) {
                            *a += 1;
                            *b += 1;
                        }
                    }
                    4 => {
                        let (a, b) = (lazy.peek_mut(line), eager.peek_mut(line));
                        prop_assert_eq!(a.as_deref(), b.as_deref());
                        if let (Some(a), Some(b)) = (a, b) {
                            *a ^= 7;
                            *b ^= 7;
                        }
                    }
                    _ => prop_assert_eq!(lazy.touch(line), eager.touch(line)),
                }
                prop_assert_eq!(lazy.len(), eager.len());
                prop_assert_eq!(lazy.free_ways_in_set_of(line), eager.free_ways_in_set_of(line));
                for set in 0..SETS {
                    let a: Vec<_> = lazy.iter_set(set).collect();
                    let b: Vec<_> = eager.iter_set(set).collect();
                    prop_assert_eq!(a, b);
                }
            }
        }

        /// get/insert/remove agree with a naive map-based model.
        #[test]
        fn matches_reference_model(ops in proptest::collection::vec((0u64..32, 0u8..3), 1..200)) {
            use std::collections::HashMap;
            let mut c: SetAssocCache<u8> = SetAssocCache::new(2, 2);
            let mut model: HashMap<u64, u8> = HashMap::new();
            for (l, op) in ops {
                let line = LineAddr::new(l);
                match op {
                    0 => {
                        if let Some((el, _)) = c.insert(line, op).evicted {
                            model.remove(&el.raw());
                        }
                        model.insert(l, op);
                    }
                    1 => {
                        prop_assert_eq!(c.get(line).copied(), model.get(&l).copied());
                    }
                    _ => {
                        prop_assert_eq!(c.remove(line), model.remove(&l));
                    }
                }
            }
        }
    }
}
