//! The scoped sweep pool (`run_jobs_hinted`): worker count must never change the
//! ordered output, a panicking job must be contained and named, and the
//! empty sweep must be a no-op at any worker count.
//!
//! Sampling is deterministic (the vendored proptest shim seeds from the
//! test name), so failures reproduce exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use lacc_experiments::{run_jobs_hinted, SweepResults};
use lacc_model::SystemConfig;
use lacc_sim::SimOptions;
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
    // baseline (`--jobs 1`) fingerprint is the reference.
    #[test]
    fn workers_never_change_the_ordered_output(
        seed in 0u64..(1u64 << 16),
        njobs in 2usize..7,
    ) {
        let serial =
            fingerprint(&run_jobs_hinted(jobs_from_seed(seed, njobs), SCALE, true, SimOptions::default(), 1, None));
        prop_assert!(!serial.is_empty());
        for workers in [2usize, 8] {
            let parallel = fingerprint(&run_jobs_hinted(
                jobs_from_seed(seed, njobs),
                SCALE,
                true,
                SimOptions::default(),
                workers,
                None,
            ));
            prop_assert_eq!(&serial, &parallel, "workers={} diverged from serial", workers);
        }
    }

    // Largest-first dispatch (cost hints) is a wall-clock optimization
    // only: for any hint vector — including adversarially inverted ones —
    // the ordered output matches the unhinted serial baseline exactly.
    #[test]
    fn cost_hints_never_change_the_ordered_output(
        seed in 0u64..(1u64 << 16),
        njobs in 2usize..6,
        invert in proptest::bool::ANY,
    ) {
        let serial =
            fingerprint(&run_jobs_hinted(jobs_from_seed(seed, njobs), SCALE, true, SimOptions::default(), 1, None));
        let costs: Vec<u64> = (0..njobs as u64)
            .map(|i| if invert { i } else { njobs as u64 - i })
            .collect();
        let hinted = fingerprint(&run_jobs_hinted(
            jobs_from_seed(seed, njobs),
            SCALE,
            true,
            SimOptions::default(),
            3,
            Some(&costs),
        ));
        prop_assert_eq!(&serial, &hinted, "cost hints changed the ordered output");
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
    let payload = catch_unwind(AssertUnwindSafe(|| {
        run_jobs_hinted(jobs, SCALE, true, SimOptions::default(), 2, None)
    }))
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
        let out = run_jobs_hinted(Vec::new(), SCALE, false, SimOptions::default(), workers, None);
        assert!(out.is_empty());
        assert_eq!(out.len(), 0);
        assert_eq!(out.iter().count(), 0);
        assert!(!out.contains_key(&("anything".to_string(), "water-sp")));
    }
}

#[test]
fn auto_and_oversubscribed_worker_counts_match_serial() {
    let mk = || jobs_from_seed(7, 3);
    let serial = fingerprint(&run_jobs_hinted(mk(), SCALE, true, SimOptions::default(), 1, None));
    // workers = 0 resolves to available parallelism; 16 > njobs clamps.
    for workers in [0usize, 16] {
        let out =
            fingerprint(&run_jobs_hinted(mk(), SCALE, true, SimOptions::default(), workers, None));
        assert_eq!(serial, out, "workers={workers}");
    }
}
