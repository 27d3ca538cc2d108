//! The scoped sweep pool (`Cli::run_jobs`): worker count must never change the
//! ordered output — serial runs follow submission order, the pool dispatches
//! largest-first — a panicking job must be contained and named, and the
//! empty sweep must be a no-op at any worker count.
//!
//! Sampling is deterministic (the vendored proptest shim seeds from the
//! test name), so failures reproduce exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use lacc_experiments::{Cli, SweepResults};
use lacc_model::SystemConfig;
use lacc_workloads::Benchmark;

const SCALE: f64 = 0.02;
const CORES: usize = 4;
const BENCHES: [Benchmark; 4] =
    [Benchmark::WaterSp, Benchmark::Streamcluster, Benchmark::Concomp, Benchmark::Patricia];

/// A canonical rendering of a whole sweep: submission order plus the full
/// `Debug` state of every report. Two sweeps with equal fingerprints
/// produce byte-identical CSVs and stdout tables in every figure binary.
fn fingerprint(results: &SweepResults) -> String {
    results
        .iter()
        .map(|((label, bench), report)| format!("{label}/{bench}: {report:?}\n"))
        .collect()
}

/// Runs `jobs` through the pool with `workers` workers (`0` = one per
/// hardware thread), printing progress unless `quiet`.
fn sweep(
    jobs: Vec<(String, Benchmark, SystemConfig)>,
    workers: usize,
    quiet: bool,
) -> SweepResults {
    Cli { jobs: workers, scale: SCALE, quiet, ..Cli::default() }.run_jobs(jobs)
}

/// A small but non-trivial job grid derived deterministically from `seed`:
/// mixed benchmarks, mixed PCTs, unique labels.
fn jobs_from_seed(seed: u64, njobs: usize) -> Vec<(String, Benchmark, SystemConfig)> {
    (0..njobs)
        .map(|i| {
            let bench = BENCHES[(seed as usize + i) % BENCHES.len()];
            let pct = 1 + ((seed >> 3) as u32 + i as u32) % 8;
            let cfg = SystemConfig::small_for_tests(CORES).with_pct(pct);
            (format!("j{i}-pct{pct}"), bench, cfg)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    // The acceptance property of the pool: for the same submitted jobs,
    // workers ∈ {1, 2, 8} yield identical ordered output — the serial
    // baseline (`--jobs 1`, submission order) fingerprint is the reference
    // for the pool's largest-first dispatch of the mixed-benchmark grid.
    #[test]
    fn workers_never_change_the_ordered_output(
        seed in 0u64..(1u64 << 16),
        njobs in 2usize..7,
    ) {
        let serial = fingerprint(&sweep(jobs_from_seed(seed, njobs), 1, true));
        prop_assert!(!serial.is_empty());
        for workers in [2usize, 8] {
            let parallel = fingerprint(&sweep(jobs_from_seed(seed, njobs), workers, true));
            prop_assert_eq!(&serial, &parallel, "workers={} diverged from serial", workers);
        }
    }
}

#[test]
fn panicking_job_is_contained_and_named() {
    let good = SystemConfig::small_for_tests(CORES);
    let mut bad = SystemConfig::small_for_tests(CORES);
    bad.classifier.pct = 0; // fails SystemConfig::validate inside the worker

    let jobs = vec![
        ("ok-1".to_string(), Benchmark::WaterSp, good.clone()),
        ("broken".to_string(), Benchmark::Streamcluster, bad),
        ("ok-2".to_string(), Benchmark::WaterSp, good.with_pct(2)),
    ];
    let payload = catch_unwind(AssertUnwindSafe(|| sweep(jobs, 2, true)))
        .expect_err("a panicking job must fail the sweep");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("panic payload is a message");
    assert!(msg.contains("1 sweep job(s) panicked"), "got: {msg}");
    assert!(msg.contains("[broken] streamclus."), "failure must name the job, got: {msg}");
    assert!(!msg.contains("ok-1") && !msg.contains("ok-2"), "healthy jobs not blamed: {msg}");
}

#[test]
fn empty_job_list_is_a_noop_at_any_worker_count() {
    for workers in [0usize, 1, 8] {
        let out = sweep(Vec::new(), workers, false);
        assert!(out.is_empty());
        assert_eq!(out.len(), 0);
        assert_eq!(out.iter().count(), 0);
        assert!(!out.contains_key(&("anything".to_string(), "water-sp")));
    }
}

#[test]
fn auto_and_oversubscribed_worker_counts_match_serial() {
    let mk = || jobs_from_seed(7, 3);
    let serial = fingerprint(&sweep(mk(), 1, true));
    // workers = 0 resolves to available parallelism; 16 > njobs clamps.
    for workers in [0usize, 16] {
        let out = fingerprint(&sweep(mk(), workers, true));
        assert_eq!(serial, out, "workers={workers}");
    }
}
