//! # lacc-bench — Criterion benchmarks
//!
//! Four suites, run with `cargo bench`:
//!
//! * `substrates` — micro-benchmarks of the building blocks (set-assoc
//!   cache, mesh routing/contention, sharer trackers, classifiers);
//! * `protocol` — the directory-entry decision kernel under realistic
//!   request mixes;
//! * `figures` — scaled-down runs of the per-figure experiment harness,
//!   so the cost of regenerating each paper figure is tracked;
//! * `sweep` — the same job grid through `run_jobs` serially and on the
//!   scoped worker pool, so the parallel-sweep speedup is tracked.
//!
//! Helpers shared by the suites live here.

use lacc_model::SystemConfig;
use lacc_sim::{SimReport, Simulator};
use lacc_workloads::Benchmark;

/// Runs `bench` on an `n`-core test machine at `scale` with the given PCT.
///
/// # Panics
///
/// Panics on configuration errors or coherence violations — benchmarks
/// must measure correct executions only.
#[must_use]
pub fn run_small(bench: Benchmark, cores: usize, pct: u32, scale: f64) -> SimReport {
    let cfg = SystemConfig::small_for_tests(cores).with_pct(pct);
    let r = Simulator::new(cfg, bench.build(cores, scale)).expect("valid config").run();
    assert_eq!(r.monitor.violations, 0);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_small_is_usable_from_benches() {
        let r = run_small(Benchmark::WaterSp, 4, 4, 0.02);
        assert!(r.completion_time > 0);
    }
}
