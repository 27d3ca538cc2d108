//! Benchmarks of the protocol decision kernel (`DirectoryEntry`) and of
//! whole simulated accesses per second on representative workloads.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lacc_bench::run_small;
use lacc_core::classifier::{RemovalReason, RequestHints};
use lacc_core::home::{AccessKind, DirectoryEntry, HomeRequest};
use lacc_core::DirectoryKind;
use lacc_model::config::ClassifierConfig;
use lacc_model::CoreId;
use lacc_workloads::Benchmark;

fn bench_directory_entry(c: &mut Criterion) {
    let mut g = c.benchmark_group("directory_entry");
    let hints = RequestHints { set_min_last_access: 0, set_has_invalid: true };
    g.bench_function("read_write_invalidate_cycle", |b| {
        let mut e =
            DirectoryEntry::new(DirectoryKind::ackwise4(), &ClassifierConfig::isca13_default(), 64);
        b.iter(|| {
            // Three readers then a writer: the §3.2 hot path.
            for i in 0..3 {
                let core = CoreId::new(i);
                let d = e.begin_request(
                    &HomeRequest { core, kind: AccessKind::Read, hints, instruction: false },
                    10,
                );
                if let Some(o) = d.fetch_from_owner {
                    e.owner_downgraded(o);
                }
                e.complete_grant(core, d.grant);
            }
            let w = CoreId::new(5);
            let d = e.begin_request(
                &HomeRequest { core: w, kind: AccessKind::Write, hints, instruction: false },
                20,
            );
            for i in 0..3 {
                e.sharer_response(CoreId::new(i), 1, RemovalReason::Invalidation);
            }
            e.complete_grant(w, d.grant);
            black_box(e.sharer_response(w, 2, RemovalReason::Eviction));
        });
    });
    g.finish();
}

fn bench_simulated_accesses(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    for bench in [Benchmark::WaterSp, Benchmark::Streamcluster, Benchmark::Concomp] {
        let accesses = run_small(bench, 8, 4, 0.05).l1d.total_accesses();
        g.throughput(Throughput::Elements(accesses));
        g.bench_function(format!("sim_{}", bench.name().replace('.', "")), |b| {
            b.iter(|| black_box(run_small(bench, 8, 4, 0.05).completion_time));
        });
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_directory_entry, bench_simulated_accesses
);
criterion_main!(benches);
