//! Address-space layout for generated workloads.
//!
//! Each benchmark carves disjoint regions out of the 48-bit physical space:
//! one shared heap (declared `Shared` for the R-NUCA oracle), one private
//! arena per core (declared `PrivateTo(core)`), and the replicated text
//! segment handled by the simulator.

use lacc_core::rnuca::RegionClass;
use lacc_model::{Addr, CoreId, LineAddr};
use lacc_sim::RegionDecl;

/// First line of the shared heap.
pub const SHARED_BASE_LINE: u64 = 0x10_0000;
/// First line of core 0's private arena.
pub const PRIVATE_BASE_LINE: u64 = 0x1000_0000;
/// Line stride between per-core private arenas.
pub const PRIVATE_STRIDE_LINES: u64 = 0x10_0000;

/// A contiguous run of cache lines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Region {
    /// First line.
    pub base_line: u64,
    /// Length in lines.
    pub lines: u64,
}

impl Region {
    /// A region of `lines` lines in the shared heap, offset by
    /// `offset_lines`.
    #[must_use]
    pub fn shared(offset_lines: u64, lines: u64) -> Self {
        Region { base_line: SHARED_BASE_LINE + offset_lines, lines }
    }

    /// A region of `lines` lines in `core`'s private arena, offset by
    /// `offset_lines`.
    ///
    /// # Panics
    ///
    /// Panics if the region overflows the arena.
    #[must_use]
    pub fn private(core: usize, offset_lines: u64, lines: u64) -> Self {
        assert!(offset_lines + lines <= PRIVATE_STRIDE_LINES, "private arena overflow");
        Region {
            base_line: PRIVATE_BASE_LINE + core as u64 * PRIVATE_STRIDE_LINES + offset_lines,
            lines,
        }
    }

    /// Byte address of `word` (0..8) in the `idx`-th line of the region
    /// (`idx` wraps around the region length).
    #[must_use]
    pub fn addr(&self, idx: u64, word: u64) -> Addr {
        // Almost every caller passes an index already inside the region,
        // so the division is paid only on a wrap.
        let idx = if idx < self.lines { idx } else { idx % self.lines.max(1) };
        let line = self.base_line + idx;
        Addr::new(line * 64 + (word % 8) * 8)
    }

    /// The oracle declaration for this region.
    #[must_use]
    pub fn decl(&self, class: RegionClass) -> RegionDecl {
        RegionDecl { first_line: LineAddr::new(self.base_line), lines: self.lines, class }
    }

    /// Shared-class declaration helper.
    #[must_use]
    pub fn decl_shared(&self) -> RegionDecl {
        self.decl(RegionClass::Shared)
    }

    /// Private-class declaration helper.
    #[must_use]
    pub fn decl_private(&self, core: usize) -> RegionDecl {
        self.decl(RegionClass::PrivateTo(CoreId::new(core)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let s = Region::shared(0, 1 << 16);
        let p0 = Region::private(0, 0, PRIVATE_STRIDE_LINES);
        let p1 = Region::private(1, 0, PRIVATE_STRIDE_LINES);
        assert!(s.base_line + s.lines <= p0.base_line);
        assert!(p0.base_line + p0.lines <= p1.base_line);
    }

    #[test]
    fn addr_wraps_within_region() {
        let r = Region::shared(0, 4);
        assert_eq!(r.addr(0, 0).line().raw(), SHARED_BASE_LINE);
        assert_eq!(r.addr(4, 0), r.addr(0, 0), "index wraps");
        assert_eq!(r.addr(1, 9), r.addr(1, 1), "word wraps");
    }

    #[test]
    fn addr_without_a_wrap_is_the_wrapped_address() {
        for lines in [0, 1, 7, 96] {
            let r = Region::shared(3, lines);
            for idx in [0, lines.saturating_sub(1), lines, 2 * lines + 3, u64::MAX] {
                for word in 0..9 {
                    let line = r.base_line + idx % lines.max(1);
                    let want = Addr::new(line * 64 + (word % 8) * 8);
                    assert_eq!(r.addr(idx, word), want, "lines {lines}, idx {idx}, word {word}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "arena overflow")]
    fn private_overflow_panics() {
        let _ = Region::private(0, PRIVATE_STRIDE_LINES, 1);
    }
}
