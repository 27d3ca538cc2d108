//! Sweep-dispatch throughput: the same 16-job grid through `run_jobs_hinted`
//! serially (`--jobs 1`) and on the scoped worker pool (`--jobs 2`).
//! The two medians land in `results/bench_summary.json`, so the
//! parallel-sweep speedup — and any regression in the pool's
//! channel/aggregation path — is tracked across PRs alongside the engine
//! benches (suite `sweep`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lacc_experiments::run_jobs_hinted;
use lacc_model::SystemConfig;
use lacc_sim::SimOptions;
use lacc_workloads::Benchmark;

const CORES: usize = 8;
const SCALE: f64 = 0.03;
const BENCHES: [Benchmark; 4] =
    [Benchmark::Streamcluster, Benchmark::WaterSp, Benchmark::Concomp, Benchmark::Canneal];

/// The grid both benches dispatch: 4 benchmarks × PCT {1, 2, 4, 8} — the
/// shape of a small figure sweep.
fn grid() -> Vec<(String, Benchmark, SystemConfig)> {
    let mut jobs = Vec::new();
    for &pct in &[1u32, 2, 4, 8] {
        let cfg = SystemConfig::small_for_tests(CORES).with_pct(pct);
        for b in BENCHES {
            jobs.push((format!("pct{pct}"), b, cfg.clone()));
        }
    }
    jobs
}

fn sweep_dispatch(c: &mut Criterion) {
    c.bench_function("run_jobs_16grid/serial", |b| {
        b.iter(|| {
            let out = run_jobs_hinted(grid(), SCALE, true, SimOptions::default(), 1, None);
            black_box(out.len())
        });
    });
    // Workers pinned to 2, not auto: auto resolves to 1 on a single-CPU
    // host and would silently measure the serial branch twice.
    c.bench_function("run_jobs_16grid/parallel", |b| {
        b.iter(|| {
            let out = run_jobs_hinted(grid(), SCALE, true, SimOptions::default(), 2, None);
            black_box(out.len())
        });
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = sweep_dispatch
);
criterion_main!(benches);
