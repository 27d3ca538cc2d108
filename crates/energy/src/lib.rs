//! Dynamic-energy model of the memory system and interconnect.
//!
//! The paper evaluates *dynamic* energy of the caches (McPAT) and network
//! (DSENT) at the 11 nm node (§4.2). Neither tool is available offline, so
//! this crate encodes per-event energies whose **ratios** carry the paper's
//! argument (see `DESIGN.md`):
//!
//! * the L2 is **word-addressable** (§4.2), so a word access is much cheaper
//!   than a line access — this is what makes remote-word misses cheaper than
//!   whole-line movement;
//! * at 11 nm, "network links have a higher contribution to the energy
//!   consumption than network routers ... attributed to the poor scaling
//!   trends of wires compared to transistors" (§5.1.1) — the per-flit link
//!   energy exceeds the per-flit router energy;
//! * directory energy "is negligible compared to all other sources" (§5.1.1)
//!   — per-event directory energies are an order of magnitude below cache
//!   accesses.
//!
//! The simulator increments an [`EnergyCounts`] ledger; [`EnergyParams`]
//! converts the ledger into the Figure-8 [`EnergyBreakdown`].
//!
//! # Examples
//!
//! ```
//! use lacc_energy::{EnergyCounts, EnergyParams};
//!
//! let params = EnergyParams::isca13_11nm();
//! let mut counts = EnergyCounts::default();
//! counts.l1d_reads = 1000;
//! counts.link_flits = 500;
//! let breakdown = params.charge(&counts);
//! assert!(breakdown.l1d > 0.0 && breakdown.link > 0.0);
//! assert_eq!(breakdown.l2, 0.0);
//! ```

use lacc_model::EnergyBreakdown;

/// Per-event dynamic energies in picojoules at the 11 nm node.
///
/// All values are exposed so ablation experiments can perturb them; the
/// [`EnergyParams::isca13_11nm`] constructor is the calibrated default used
/// by every figure.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EnergyParams {
    /// L1-I read (per instruction-fetch access).
    pub l1i_read: f64,
    /// L1-I fill (line install).
    pub l1i_fill: f64,
    /// L1-D read hit (data + tag; the utilization-counter update rides the
    /// LRU tag write the cache performs anyway, §3.6).
    pub l1d_read: f64,
    /// L1-D write hit.
    pub l1d_write: f64,
    /// L1-D tag-only probe (miss detection).
    pub l1d_tag_probe: f64,
    /// L1-D line fill / eviction read-out.
    pub l1d_fill: f64,
    /// L2 whole-line read (private-sharer data return, write-backs).
    pub l2_line_read: f64,
    /// L2 whole-line write (DRAM fill, dirty write-back absorb).
    pub l2_line_write: f64,
    /// L2 single-word read (remote-sharer load, §4.2 word-addressable).
    pub l2_word_read: f64,
    /// L2 single-word write (remote-sharer store).
    pub l2_word_write: f64,
    /// L2 tag probe.
    pub l2_tag_probe: f64,
    /// Directory entry read (integrated in the L2 tag array).
    pub dir_read: f64,
    /// Directory entry update (sharer pointers, utilization counters,
    /// mode/RAT bits).
    pub dir_update: f64,
    /// Router traversal, per flit.
    pub router_flit: f64,
    /// Link traversal, per flit per hop.
    pub link_flit: f64,
}

impl EnergyParams {
    /// Calibrated 11 nm defaults (see crate docs for the ratio rationale).
    #[must_use]
    pub fn isca13_11nm() -> Self {
        EnergyParams {
            l1i_read: 3.2,
            l1i_fill: 6.0,
            l1d_read: 5.0,
            l1d_write: 5.6,
            l1d_tag_probe: 1.2,
            l1d_fill: 11.0,
            l2_line_read: 55.0,
            l2_line_write: 60.0,
            l2_word_read: 10.5,
            l2_word_write: 11.5,
            l2_tag_probe: 2.4,
            dir_read: 0.9,
            dir_update: 1.1,
            router_flit: 1.5,
            link_flit: 3.0,
        }
    }

    /// Converts an event ledger into the Figure-8 component breakdown.
    #[must_use]
    pub fn charge(&self, c: &EnergyCounts) -> EnergyBreakdown {
        EnergyBreakdown {
            l1i: c.l1i_reads as f64 * self.l1i_read + c.l1i_fills as f64 * self.l1i_fill,
            l1d: c.l1d_reads as f64 * self.l1d_read
                + c.l1d_writes as f64 * self.l1d_write
                + c.l1d_tag_probes as f64 * self.l1d_tag_probe
                + c.l1d_fills as f64 * self.l1d_fill,
            l2: c.l2_line_reads as f64 * self.l2_line_read
                + c.l2_line_writes as f64 * self.l2_line_write
                + c.l2_word_reads as f64 * self.l2_word_read
                + c.l2_word_writes as f64 * self.l2_word_write
                + c.l2_tag_probes as f64 * self.l2_tag_probe,
            directory: c.dir_reads as f64 * self.dir_read + c.dir_updates as f64 * self.dir_update,
            router: c.router_flits as f64 * self.router_flit,
            link: c.link_flits as f64 * self.link_flit,
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self::isca13_11nm()
    }
}

/// Ledger of energy-consuming events, incremented by the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EnergyCounts {
    /// Instruction-fetch reads of the L1-I.
    pub l1i_reads: u64,
    /// L1-I line fills.
    pub l1i_fills: u64,
    /// L1-D read hits.
    pub l1d_reads: u64,
    /// L1-D write hits.
    pub l1d_writes: u64,
    /// L1-D miss tag probes.
    pub l1d_tag_probes: u64,
    /// L1-D line fills and eviction read-outs.
    pub l1d_fills: u64,
    /// L2 whole-line reads.
    pub l2_line_reads: u64,
    /// L2 whole-line writes.
    pub l2_line_writes: u64,
    /// L2 word reads (remote sharers).
    pub l2_word_reads: u64,
    /// L2 word writes (remote sharers).
    pub l2_word_writes: u64,
    /// L2 tag probes.
    pub l2_tag_probes: u64,
    /// Directory reads.
    pub dir_reads: u64,
    /// Directory updates.
    pub dir_updates: u64,
    /// Flit–router traversals.
    pub router_flits: u64,
    /// Flit–link traversals.
    pub link_flits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_counts_zero_energy() {
        let e = EnergyParams::isca13_11nm().charge(&EnergyCounts::default());
        assert_eq!(e.total(), 0.0);
    }

    #[test]
    fn paper_ratios_hold() {
        let p = EnergyParams::isca13_11nm();
        // Word-addressable L2: word access far cheaper than line access.
        assert!(p.l2_word_read * 2.0 < p.l2_line_read);
        assert!(p.l2_word_write * 2.0 < p.l2_line_write);
        // 11 nm wires scale worse than transistors: links dominate routers.
        assert!(p.link_flit > p.router_flit);
        // Directory energy is negligible next to cache accesses.
        assert!(p.dir_read < p.l1d_read / 2.0);
        assert!(p.dir_update < p.l2_word_read / 2.0);
    }

    #[test]
    fn word_miss_cheaper_than_line_miss_end_to_end() {
        // The central energy claim (§1, §5.1.1): serving a low-locality miss
        // as a 2-flit word round-trip beats moving a 9-flit line, per hop.
        let p = EnergyParams::isca13_11nm();
        let hops = 6.0; // average 8x8-mesh distance
        let word = p.l2_word_read
            + 2.0 * hops * (p.router_flit + p.link_flit) // request
            + 2.0 * 2.0 * hops * (p.router_flit + p.link_flit); // 2-flit reply... request is 2 flits too
        let line = p.l2_line_read
            + 2.0 * hops * (p.router_flit + p.link_flit) // 1-flit request... conservative
            + 9.0 * hops * (p.router_flit + p.link_flit)
            + p.l1d_fill;
        assert!(word < line, "word path ({word:.1} pJ) must beat line path ({line:.1} pJ)");
    }

    #[test]
    fn charge_maps_components() {
        let p = EnergyParams::isca13_11nm();
        let c = EnergyCounts {
            l1i_reads: 10,
            l2_word_reads: 3,
            dir_updates: 7,
            router_flits: 11,
            link_flits: 13,
            ..Default::default()
        };
        let e = p.charge(&c);
        assert!((e.l1i - 10.0 * p.l1i_read).abs() < 1e-9);
        assert!((e.l2 - 3.0 * p.l2_word_read).abs() < 1e-9);
        assert!((e.directory - 7.0 * p.dir_update).abs() < 1e-9);
        assert!((e.router - 11.0 * p.router_flit).abs() < 1e-9);
        assert!((e.link - 13.0 * p.link_flit).abs() < 1e-9);
        assert_eq!(e.l1d, 0.0);
    }
}
