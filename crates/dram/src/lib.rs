//! Off-chip DRAM model.
//!
//! Table 1: eight on-chip memory controllers, 5 GBps of bandwidth per
//! controller, 100 ns access latency. The model is a latency + bandwidth
//! queue per controller: a request pays the fixed DRAM latency and occupies
//! its controller for `bytes / bytes_per_cycle` cycles, so bursts of misses
//! experience queueing delay — the "queueing delay incurred due to finite
//! off-chip bandwidth" included in the paper's *L2 cache to off-chip memory*
//! completion-time component (§4.4).
//!
//! Controllers are attached to evenly spaced tiles (the paper: "Some cores
//! have a connection to a memory controller"); lines interleave across
//! controllers by a mixing hash of the line address.
//!
//! # Examples
//!
//! ```
//! use lacc_dram::DramSystem;
//! use lacc_model::LineAddr;
//!
//! let mut dram = DramSystem::new(8, 64, 100, 5.0);
//! let ctrl = dram.ctrl_for_line(LineAddr::new(42));
//! // One 64-byte line: 100 cycles latency + ceil(64/5) transfer.
//! let done = dram.access(ctrl, 64, 1000);
//! assert_eq!(done, 1000 + 100 + 13);
//! ```

use lacc_model::{CoreId, Cycle, LineAddr, MemCtrlId};

/// Aggregate DRAM traffic counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DramStats {
    /// Requests served (reads + writes).
    pub accesses: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Cycles requests spent queued behind earlier transfers.
    pub queue_cycles: u64,
}

#[derive(Clone, Debug)]
struct Controller {
    tile: CoreId,
    next_free: Cycle,
}

/// The set of memory controllers of one chip.
#[derive(Clone, Debug)]
pub struct DramSystem {
    ctrls: Vec<Controller>,
    latency: Cycle,
    bytes_per_cycle: f64,
    stats: DramStats,
}

impl DramSystem {
    /// Creates `num_ctrls` controllers for a chip of `num_tiles` tiles with
    /// the given access latency (cycles) and per-controller bandwidth
    /// (bytes per cycle). Controllers are attached to tiles
    /// `i * num_tiles / num_ctrls`.
    ///
    /// # Panics
    ///
    /// Panics if `num_ctrls` is zero, exceeds `num_tiles`, or the bandwidth
    /// is not positive.
    #[must_use]
    pub fn new(num_ctrls: usize, num_tiles: usize, latency: Cycle, bytes_per_cycle: f64) -> Self {
        assert!(num_ctrls > 0 && num_ctrls <= num_tiles, "bad controller count");
        assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
        let ctrls = (0..num_ctrls)
            .map(|i| Controller { tile: CoreId::new(i * num_tiles / num_ctrls), next_free: 0 })
            .collect();
        DramSystem { ctrls, latency, bytes_per_cycle, stats: DramStats::default() }
    }

    /// The controller that owns a cache line (mixing-hash interleaving so
    /// strided workloads still balance across controllers).
    #[must_use]
    pub fn ctrl_for_line(&self, line: LineAddr) -> MemCtrlId {
        // SplitMix64 finalizer: avalanche the line number.
        let mut z = line.raw().wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        MemCtrlId::new((z % self.ctrls.len() as u64) as usize)
    }

    /// The tile a controller is attached to (protocol messages to DRAM are
    /// routed to this tile over the mesh).
    ///
    /// # Panics
    ///
    /// Panics if the controller id is out of range.
    #[must_use]
    pub fn tile_of(&self, ctrl: MemCtrlId) -> CoreId {
        self.ctrls[ctrl.index()].tile
    }

    /// Serves a `bytes`-byte access arriving at the controller at `now`;
    /// returns the completion cycle (`queue + latency + transfer`).
    ///
    /// # Panics
    ///
    /// Panics if the controller id is out of range or `bytes` is zero.
    pub fn access(&mut self, ctrl: MemCtrlId, bytes: usize, now: Cycle) -> Cycle {
        assert!(bytes > 0, "zero-byte DRAM access");
        let c = &mut self.ctrls[ctrl.index()];
        let start = now.max(c.next_free);
        let transfer = (bytes as f64 / self.bytes_per_cycle).ceil() as Cycle;
        c.next_free = start + transfer;
        self.stats.accesses += 1;
        self.stats.bytes += bytes as u64;
        self.stats.queue_cycles += start - now;
        start + self.latency + transfer
    }

    /// Traffic counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> DramStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_plus_transfer() {
        let mut d = DramSystem::new(1, 4, 100, 5.0);
        // 64 bytes at 5 B/cycle: ceil(12.8) = 13 transfer cycles.
        assert_eq!(d.access(MemCtrlId::new(0), 64, 0), 113);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut d = DramSystem::new(1, 4, 100, 5.0);
        let a = d.access(MemCtrlId::new(0), 64, 0);
        let b = d.access(MemCtrlId::new(0), 64, 0);
        assert_eq!(a, 113);
        assert_eq!(b, 13 + 113, "second access waits for the first transfer");
        assert_eq!(d.stats().queue_cycles, 13);
    }

    #[test]
    fn independent_controllers_do_not_queue() {
        let mut d = DramSystem::new(2, 4, 100, 5.0);
        let a = d.access(MemCtrlId::new(0), 64, 0);
        let b = d.access(MemCtrlId::new(1), 64, 0);
        assert_eq!(a, b);
        assert_eq!(d.stats().queue_cycles, 0);
    }

    #[test]
    fn placement_is_evenly_spread() {
        let d = DramSystem::new(8, 64, 100, 5.0);
        let tiles: Vec<usize> = (0..8).map(|i| d.tile_of(MemCtrlId::new(i)).index()).collect();
        assert_eq!(tiles, vec![0, 8, 16, 24, 32, 40, 48, 56]);
    }

    #[test]
    fn line_interleaving_balances() {
        let d = DramSystem::new(8, 64, 100, 5.0);
        let mut counts = [0u32; 8];
        for l in 0..8000u64 {
            counts[d.ctrl_for_line(LineAddr::new(l)).index()] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "imbalanced controller load: {counts:?}");
        }
    }

    #[test]
    fn strided_lines_balance_too() {
        // Page-strided accesses (every 64th line) must not all map to one
        // controller — this is why the hash exists.
        let d = DramSystem::new(8, 64, 100, 5.0);
        let mut counts = [0u32; 8];
        for i in 0..4096u64 {
            counts[d.ctrl_for_line(LineAddr::new(i * 64)).index()] += 1;
        }
        for &c in &counts {
            assert!(c > 0, "controller starved under stride: {counts:?}");
        }
    }

    #[test]
    fn mapping_is_deterministic() {
        let d = DramSystem::new(8, 64, 100, 5.0);
        for l in [0u64, 7, 1 << 20, (1 << 40) + 3] {
            assert_eq!(d.ctrl_for_line(LineAddr::new(l)), d.ctrl_for_line(LineAddr::new(l)));
        }
    }

    #[test]
    #[should_panic(expected = "bad controller count")]
    fn too_many_controllers_panics() {
        let _ = DramSystem::new(5, 4, 100, 5.0);
    }
}
