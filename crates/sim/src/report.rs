//! Simulation results: everything the paper's figures consume.

use lacc_cache::SlabStats;
use lacc_dram::DramStats;
use lacc_energy::EnergyCounts;
use lacc_model::{CompletionBreakdown, Cycle, EnergyBreakdown, MissStats, UtilizationHistogram};
use lacc_network::NetStats;

use crate::monitor::MonitorReport;

/// Protocol-level event counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProtocolStats {
    /// Whole-line grants to private sharers.
    pub line_grants: u64,
    /// Upgrade grants.
    pub upgrades: u64,
    /// Remote word reads served at the L2.
    pub word_reads: u64,
    /// Remote word writes served at the L2.
    pub word_writes: u64,
    /// Remote→private promotions.
    pub promotions: u64,
    /// Private→remote demotions.
    pub demotions: u64,
    /// Invalidation messages sent (unicast count + one per broadcast).
    pub invalidations_sent: u64,
    /// Broadcast invalidation rounds.
    pub broadcasts: u64,
    /// Synchronous write-backs (owner downgrades).
    pub write_backs: u64,
    /// L1 eviction notifies processed.
    pub evictions: u64,
    /// Lines evicted from the L2, whether or not a private copy was
    /// left; only a victim with sharers starts a back-invalidation round.
    pub l2_evictions: u64,
}

/// Full result of one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Workload name.
    pub workload: String,
    /// Parallel-region completion time: the maximum core finish time.
    pub completion_time: Cycle,
    /// Per-core completion breakdowns (§4.4).
    pub per_core: Vec<CompletionBreakdown>,
    /// Sum of the per-core breakdowns (the Figure 9 stack).
    pub breakdown: CompletionBreakdown,
    /// Dynamic energy by component (the Figure 8 stack).
    pub energy: EnergyBreakdown,
    /// Raw energy-event ledger.
    pub energy_counts: EnergyCounts,
    /// Aggregate L1-D hit/miss statistics with miss classes (Figure 10).
    pub l1d: MissStats,
    /// Aggregate L1-I statistics.
    pub l1i: MissStats,
    /// Utilization histogram of invalidated lines (Figure 1).
    pub inval_histogram: UtilizationHistogram,
    /// Utilization histogram of evicted lines (Figure 2).
    pub evict_histogram: UtilizationHistogram,
    /// Network traffic counters.
    pub net: NetStats,
    /// DRAM traffic counters.
    pub dram: DramStats,
    /// Protocol event counters.
    pub protocol: ProtocolStats,
    /// Instructions executed across all cores.
    pub instructions: u64,
    /// Coherence-monitor outcome.
    pub monitor: MonitorReport,
    /// Data-slab copy accounting: how often line bytes were actually
    /// copied vs aliased on the simulator's data plane.
    pub slab: SlabStats,
}

impl SimReport {
    /// L1-D miss rate in percent (the Figure 10 y-axis).
    #[must_use]
    pub fn l1d_miss_rate_pct(&self) -> f64 {
        self.l1d.miss_rate() * 100.0
    }

    /// Total dynamic energy in picojoules.
    #[must_use]
    pub fn total_energy(&self) -> f64 {
        self.energy.total()
    }

    /// A compact one-line summary for harness output.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{:<14} time={:>10} cyc  energy={:>12.0} pJ  l1d-miss={:>6.2}%  word-misses={}  checked={}",
            self.workload,
            self.completion_time,
            self.total_energy(),
            self.l1d_miss_rate_pct(),
            self.l1d.of(lacc_model::MissClass::Word),
            if self.monitor.violations == 0 { "ok" } else { "VIOLATED" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mentions_workload_and_status() {
        let r = SimReport {
            workload: "demo".into(),
            completion_time: 1000,
            per_core: vec![],
            breakdown: CompletionBreakdown::default(),
            energy: EnergyBreakdown::default(),
            energy_counts: EnergyCounts::default(),
            l1d: MissStats::default(),
            l1i: MissStats::default(),
            inval_histogram: UtilizationHistogram::new(),
            evict_histogram: UtilizationHistogram::new(),
            net: NetStats::default(),
            dram: DramStats::default(),
            protocol: ProtocolStats::default(),
            instructions: 0,
            monitor: MonitorReport::default(),
            slab: SlabStats::default(),
        };
        let s = r.summary();
        assert!(s.contains("demo"));
        assert!(s.contains("checked=ok"));
    }
}
