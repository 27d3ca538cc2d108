//! A set of [`CoreId`]s, sized to the machine.
//!
//! [`CoreSet`] is the workspace's one set of cores: a directory entry's
//! exact sharers, and the unicast invalidations a home sends and awaits.
//! Cores 0..63 live in one inline word, and cores 64 and up in a boxed
//! bitmap that exists only while one of them is a member, so on a machine
//! of at most 64 cores (Table 1 and every figure) a set never allocates.
//! Iteration is ascending, so invalidation rounds visit sharers in core
//! order. The width is the paper's largest machine, 1024 cores (Table 4);
//! [`SystemConfig::validate`](crate::SystemConfig::validate) rejects
//! larger machines.
//!
//! # Examples
//!
//! ```
//! use lacc_model::{CoreId, CoreSet};
//!
//! let mut s: CoreSet = [3, 1, 60].into_iter().map(CoreId::new).collect();
//! assert_eq!(s.len(), 3);
//! assert!(s.contains(CoreId::new(60)));
//! // The iterator owns its copy, so the set may change under it.
//! for c in s.iter() {
//!     if c.index() == 1 {
//!         s.remove(c);
//!     }
//! }
//! let members: Vec<usize> = s.iter().map(|c| c.index()).collect();
//! assert_eq!(members, vec![3, 60]); // ascending order
//! ```

use std::fmt;

use crate::CoreId;

/// Largest machine size the simulator accepts (the paper's biggest
/// evaluated configuration).
pub const MAX_CORES: usize = 1024;

/// Words of the boxed part: cores 64..MAX_CORES.
const HIGH_WORDS: usize = MAX_CORES / 64 - 1;

/// A set of cores over `0..MAX_CORES`: an inline word for cores 0..63
/// and, only while a core at index 64 or above is a member, a boxed
/// bitmap of those cores.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct CoreSet {
    low: u64,
    /// Word `w` holds cores `64 * (w + 1)..64 * (w + 2)`; `None` whenever
    /// none of them is a member.
    high: Option<Box<[u64; HIGH_WORDS]>>,
}

// Every resident L2 line's exact sharers are one of these.
const _: () = assert!(std::mem::size_of::<CoreSet>() <= 16);

/// The word index and bit mask of `core`.
fn slot(core: CoreId) -> (usize, u64) {
    let i = core.index();
    assert!(i < MAX_CORES, "core index {i} exceeds MAX_CORES");
    (i / 64, 1 << (i % 64))
}

impl CoreSet {
    /// Creates an empty set.
    #[must_use]
    pub const fn new() -> Self {
        CoreSet { low: 0, high: None }
    }

    /// Number of member cores.
    #[must_use]
    pub fn len(&self) -> usize {
        let high = self.high.iter().flat_map(|h| h.iter());
        (self.low.count_ones() + high.map(|w| w.count_ones()).sum::<u32>()) as usize
    }

    /// `true` when no core is a member.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.low == 0 && self.high.is_none()
    }

    /// Whether `core` is a member.
    ///
    /// # Panics
    ///
    /// Panics if `core.index() >= MAX_CORES`.
    #[must_use]
    pub fn contains(&self, core: CoreId) -> bool {
        let (w, mask) = slot(core);
        let word = match (w, &self.high) {
            (0, _) => self.low,
            (_, Some(high)) => high[w - 1],
            (_, None) => 0,
        };
        word & mask != 0
    }

    /// Adds `core`; returns `true` if it was not already a member.
    ///
    /// # Panics
    ///
    /// Panics if `core.index() >= MAX_CORES`.
    pub fn insert(&mut self, core: CoreId) -> bool {
        let (w, mask) = slot(core);
        let word = match w {
            0 => &mut self.low,
            _ => &mut self.high.get_or_insert_with(Box::default)[w - 1],
        };
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Removes `core`; returns `true` if it was a member. The boxed part
    /// is freed when its last member leaves.
    ///
    /// # Panics
    ///
    /// Panics if `core.index() >= MAX_CORES`.
    pub fn remove(&mut self, core: CoreId) -> bool {
        let (w, mask) = slot(core);
        let word = match (w, &mut self.high) {
            (0, _) => &mut self.low,
            (_, Some(high)) => &mut high[w - 1],
            (_, None) => return false,
        };
        let present = *word & mask != 0;
        *word &= !mask;
        if self.high.as_ref().is_some_and(|h| h.iter().all(|&x| x == 0)) {
            self.high = None;
        }
        present
    }

    /// Iterates the members in ascending core order. The iterator owns a
    /// copy of the set, so the set may change while it runs; the copy
    /// allocates only when a core above 63 is a member.
    #[must_use]
    pub fn iter(&self) -> CoreSetIter {
        CoreSetIter { rest: self.clone(), word: 0 }
    }
}

impl fmt::Debug for CoreSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|c| c.index())).finish()
    }
}

impl FromIterator<CoreId> for CoreSet {
    fn from_iter<I: IntoIterator<Item = CoreId>>(iter: I) -> Self {
        let mut s = CoreSet::new();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

/// Ascending-order iterator over a [`CoreSet`]: its own copy of the
/// members not yet yielded, drained a word at a time.
#[derive(Clone, Debug)]
pub struct CoreSetIter {
    rest: CoreSet,
    /// The word being drained: 0 is the inline word, `w` the boxed `w - 1`.
    word: usize,
}

impl Iterator for CoreSetIter {
    type Item = CoreId;

    fn next(&mut self) -> Option<CoreId> {
        loop {
            let bits = match self.word {
                0 => &mut self.rest.low,
                w => self.rest.high.as_mut()?.get_mut(w - 1)?,
            };
            if *bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                *bits &= *bits - 1;
                return Some(CoreId::new(self.word * 64 + bit));
            }
            self.word += 1;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.rest.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for CoreSetIter {}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: usize) -> CoreId {
        CoreId::new(n)
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = CoreSet::new();
        assert!(s.is_empty());
        assert!(s.insert(c(0)));
        assert!(s.insert(c(63)));
        assert!(s.insert(c(64)));
        assert!(s.insert(c(MAX_CORES - 1)));
        assert!(!s.insert(c(63)), "re-insert is a no-op");
        assert_eq!(s.len(), 4);
        assert!(s.contains(c(64)));
        assert!(!s.contains(c(65)));
        assert!(s.remove(c(64)));
        assert!(!s.remove(c(64)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn iteration_is_ascending_and_exact() {
        let s: CoreSet = [900, 2, 65, 2, 130].into_iter().map(c).collect();
        let v: Vec<usize> = s.iter().map(|x| x.index()).collect();
        assert_eq!(v, vec![2, 65, 130, 900]);
        assert_eq!(s.iter().len(), 4);
    }

    /// Emptying a set member by member frees its box; `Debug` prints the
    /// members in order.
    #[test]
    fn clear_and_debug() {
        let mut s: CoreSet = [1, 2, 700].into_iter().map(c).collect();
        assert_eq!(format!("{s:?}"), "{1, 2, 700}");
        for m in [1, 2, 700] {
            s.remove(c(m));
        }
        assert!(s.is_empty() && s.high.is_none());
        assert_eq!(s.iter().next(), None);
        assert_eq!(format!("{s:?}"), "{}");
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_CORES")]
    fn out_of_width_panics() {
        let mut s = CoreSet::new();
        s.insert(c(MAX_CORES));
    }

    /// Cores below 64 stay in the inline word; the first core at 64 or
    /// above boxes the rest of the set, and the box goes with the last one.
    #[test]
    fn high_cores_spill_and_return() {
        let mut s: CoreSet = [63, 0, 5].into_iter().map(c).collect();
        assert!(s.high.is_none(), "cores below 64 allocate nothing");
        assert!(s.insert(c(700)));
        assert!(s.insert(c(64)));
        assert!(!s.insert(c(64)));
        assert_eq!(s.len(), 5);
        assert!(s.contains(c(700)) && s.contains(c(63)) && !s.contains(c(65)));
        let order: Vec<usize> = s.iter().map(CoreId::index).collect();
        assert_eq!(order, [0, 5, 63, 64, 700], "ascending, the inline word first");
        assert_eq!(format!("{s:?}"), "{0, 5, 63, 64, 700}");
        assert!(s.remove(c(64)));
        assert!(!s.remove(c(64)));
        assert!(s.remove(c(700)));
        assert!(s.high.is_none(), "the box goes with its last core");
        assert!(!s.remove(c(900)));
        assert_eq!(s, [0, 5, 63].into_iter().map(c).collect());
    }

    /// The iterator does not borrow the set: a caller may remove each
    /// member as it is visited, and still sees every one of them, in
    /// order, whether or not the set spans its boxed part.
    #[test]
    fn members_can_be_removed_while_iterating() {
        for cores in [&[1, 7, 63][..], &[0, 64, 65, 1000]] {
            let mut s: CoreSet = cores.iter().copied().map(c).collect();
            let mut seen = Vec::new();
            for m in s.iter() {
                assert!(s.remove(m));
                seen.push(m.index());
            }
            assert_eq!(seen, cores);
            assert!(s.is_empty() && s.high.is_none());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// CoreSet behaves exactly like a reference BTreeSet under any
        /// interleaving of inserts and removes: return values, length and
        /// membership after every op, the boxed part present exactly while
        /// a core above 63 is a member, and the iteration order.
        #[test]
        fn matches_btreeset_model(
            ops in proptest::collection::vec(
                (prop_oneof![0usize..80, 0usize..MAX_CORES], proptest::bool::ANY),
                1..200,
            )
        ) {
            let mut s = CoreSet::new();
            let mut model = std::collections::BTreeSet::new();
            for (i, add) in ops {
                if add {
                    prop_assert_eq!(s.insert(CoreId::new(i)), model.insert(i));
                } else {
                    prop_assert_eq!(s.remove(CoreId::new(i)), model.remove(&i));
                }
                prop_assert_eq!(s.len(), model.len());
                for probe in [i, 0, 63, 64, 79, MAX_CORES - 1] {
                    prop_assert_eq!(s.contains(CoreId::new(probe)), model.contains(&probe));
                }
                prop_assert_eq!(s.high.is_some(), model.range(64..).next().is_some());
            }
            let got: Vec<usize> = s.iter().map(|x| x.index()).collect();
            let want: Vec<usize> = model.into_iter().collect();
            prop_assert_eq!(got, want);
        }
    }
}
