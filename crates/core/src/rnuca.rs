//! Reactive-NUCA data placement (Hardavellas et al., ISCA 2009), the
//! baseline cache organization of the evaluated machine (§3.1).
//!
//! R-NUCA classifies OS pages and places their lines in the distributed
//! shared L2 accordingly:
//!
//! * **private data** → the L2 slice of the owning core (local access);
//! * **shared data** → a single slice selected by hashing the line address
//!   across all tiles;
//! * **instructions** → replicated per cluster of 4 cores with rotational
//!   interleaving: each cluster holds its own copy, spread across the
//!   cluster's slices.
//!
//! The paper's OS-page-table mechanism is replaced by an oracle: workload
//! generators declare region classes up front, with first-touch
//! classification as the fallback for undeclared pages (see DESIGN.md,
//! "Substitutions"). Reclassification shootdowns are not modeled.

use lacc_model::{CoreId, FxHashMap, LineAddr, PageAddr};

/// R-NUCA class of a page.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RegionClass {
    /// Accessed by a single core; homed at that core's L2 slice.
    PrivateTo(CoreId),
    /// Accessed by multiple cores; homed by address hash across all tiles.
    Shared,
    /// Instruction page; replicated per 4-core cluster.
    Instruction,
}

/// The placement oracle: page classes plus the home-computation rules.
#[derive(Clone, Debug)]
pub struct Rnuca {
    num_cores: usize,
    cluster: usize,
    /// Read on every miss and every `Inv` arrival, never iterated: the
    /// hasher cannot change any output.
    pages: FxHashMap<PageAddr, RegionClass>,
}

impl Rnuca {
    /// Creates a placement map for `num_cores` tiles with instruction
    /// clusters of `cluster` cores (Table 1: 4).
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is zero or does not divide `num_cores`.
    #[must_use]
    pub fn new(num_cores: usize, cluster: usize) -> Self {
        assert!(cluster > 0 && num_cores % cluster == 0, "cluster must divide num_cores");
        Rnuca { num_cores, cluster, pages: FxHashMap::default() }
    }

    /// Declares a page's class up front (the oracle seeding).
    fn declare(&mut self, page: PageAddr, class: RegionClass) {
        self.pages.insert(page, class);
    }

    /// Declares every page covering `lines` consecutive lines from
    /// `first_line`.
    pub fn declare_lines(&mut self, first_line: LineAddr, lines: u64, class: RegionClass) {
        let mut l = first_line.raw();
        let end = first_line.raw() + lines.max(1);
        while l < end {
            self.declare(LineAddr::new(l).page(), class);
            l += 64; // 64 lines per 4 KB page
        }
        // Ensure the final partial page is covered.
        self.declare(LineAddr::new(end - 1).page(), class);
    }

    /// The class of `page`, classifying by first touch if undeclared.
    pub fn classify(&mut self, page: PageAddr, toucher: CoreId) -> RegionClass {
        *self.pages.entry(page).or_insert(RegionClass::PrivateTo(toucher))
    }

    /// The home tile for `line` when accessed by `requester`, classifying
    /// the page by first touch if needed.
    pub fn home_for(&mut self, line: LineAddr, requester: CoreId) -> CoreId {
        match self.classify(line.page(), requester) {
            RegionClass::PrivateTo(owner) => owner,
            RegionClass::Shared => {
                CoreId::new((Self::mix(line.raw()) % self.num_cores as u64) as usize)
            }
            RegionClass::Instruction => {
                // Rotational interleaving within the requester's cluster.
                let base = (requester.index() / self.cluster) * self.cluster;
                CoreId::new(base + (Self::mix(line.raw()) % self.cluster as u64) as usize)
            }
        }
    }

    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: usize) -> CoreId {
        CoreId::new(n)
    }

    #[test]
    fn first_touch_private() {
        let mut r = Rnuca::new(16, 4);
        let line = LineAddr::new(100);
        assert_eq!(r.home_for(line, c(5)), c(5), "first toucher owns the page");
        // A second core touching the *same page* still sees the private
        // home (no reclassification shootdown is modeled).
        assert_eq!(r.home_for(line, c(2)), c(5));
    }

    #[test]
    fn declared_shared_pages_hash_across_tiles() {
        let mut r = Rnuca::new(16, 4);
        r.declare_lines(LineAddr::new(0), 64 * 50, RegionClass::Shared);
        let mut seen = std::collections::HashSet::new();
        for l in 0..800u64 {
            let home = r.home_for(LineAddr::new(l * 4), c(0));
            assert!(home.index() < 16);
            seen.insert(home.index());
        }
        assert!(seen.len() > 12, "shared lines must spread across tiles: {seen:?}");
    }

    #[test]
    fn shared_home_is_requester_independent() {
        let mut r = Rnuca::new(16, 4);
        r.declare(LineAddr::new(77).page(), RegionClass::Shared);
        assert_eq!(r.home_for(LineAddr::new(77), c(0)), r.home_for(LineAddr::new(77), c(9)));
    }

    #[test]
    fn instruction_home_stays_in_cluster() {
        let mut r = Rnuca::new(16, 4);
        r.declare(LineAddr::new(0).page(), RegionClass::Instruction);
        for req in 0..16 {
            let cluster = req / 4;
            for l in 0..32u64 {
                let home = r.home_for(LineAddr::new(l), c(req));
                assert_eq!(home.index() / 4, cluster, "instr home must stay in requester cluster");
            }
        }
    }

    #[test]
    fn instruction_lines_rotate_within_cluster() {
        let mut r = Rnuca::new(16, 4);
        r.declare(LineAddr::new(0).page(), RegionClass::Instruction);
        let homes: std::collections::HashSet<usize> =
            (0..32u64).map(|l| r.home_for(LineAddr::new(l), c(0)).index()).collect();
        assert!(homes.len() > 1, "rotational interleaving must use several slices");
    }

    #[test]
    fn declare_lines_covers_partial_pages() {
        let mut r = Rnuca::new(4, 4);
        // 100 lines starting at line 10: pages 0 and 1 (64 lines/page).
        r.declare_lines(LineAddr::new(10), 100, RegionClass::Shared);
        assert_eq!(r.pages[&LineAddr::new(10).page()], RegionClass::Shared);
        assert_eq!(r.pages[&LineAddr::new(109).page()], RegionClass::Shared);
    }

    #[test]
    #[should_panic(expected = "cluster must divide")]
    fn bad_cluster_panics() {
        let _ = Rnuca::new(10, 4);
    }
}
