//! Decode-plane benchmarks for the LTF trace format: what does pulling a
//! suite workload back out of a trace image cost per op, and what does
//! the batched decode API buy over per-op pulls?
//!
//! Both benchmarks decode the *same* workload (every core stream, start
//! to end) per iteration, so their `Melem/s` figures compare directly:
//!
//! - `decode_v2` — the zero-copy [`LtfTrace`] cursor over one shared
//!   buffer, one op per virtual call.
//! - `decode_v2_batch` — the same cursor drained through
//!   [`TraceSource::next_ops`], which is how the engine's per-core refill
//!   buffer actually consumes traces.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lacc_sim::ltf::{self, LtfTrace, SharedBuf};
use lacc_sim::trace::TraceOp;
use lacc_sim::TraceSource;
use lacc_workloads::Benchmark;

/// Matches the engine's per-core refill batch (`LOCAL_BATCH`).
const BATCH: usize = 64;

fn corpus_workload() -> lacc_sim::trace::Workload {
    Benchmark::WaterSp.build(8, 0.1)
}

fn bench_ltf(c: &mut Criterion) {
    let v2 = ltf::workload_to_ltf_bytes_v2(corpus_workload()).expect("encode");
    let (_, ops) = ltf::read_workload_bytes(&v2).expect("decodes");
    let total_ops: u64 = ops.iter().map(|core| core.len() as u64).sum();
    println!("ltf corpus: {total_ops} ops, {} bytes", v2.len());

    let mut g = c.benchmark_group("ltf");
    g.throughput(Throughput::Elements(total_ops));

    let buf = SharedBuf::from_vec(v2);
    let (header, offsets) = ltf::read_header_bytes(&buf).expect("header");
    let mut traces: Vec<LtfTrace> = offsets
        .iter()
        .map(|&o| LtfTrace::open(buf.clone(), o as usize, &header).expect("valid stream"))
        .collect();

    g.bench_function("decode_v2", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for trace in &mut traces {
                trace.reset();
                while let Some(op) = trace.next_op() {
                    black_box(op);
                    n += 1;
                }
            }
            assert_eq!(n, total_ops);
            n
        });
    });

    g.bench_function("decode_v2_batch", |b| {
        let mut batch: Vec<TraceOp> = Vec::with_capacity(BATCH);
        b.iter(|| {
            let mut n = 0u64;
            for trace in &mut traces {
                trace.reset();
                loop {
                    batch.clear();
                    let got = trace.next_ops(&mut batch, BATCH);
                    n += black_box(&batch).len() as u64;
                    if got < BATCH {
                        break;
                    }
                }
            }
            assert_eq!(n, total_ops);
            n
        });
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(200);
    targets = bench_ltf
);
criterion_main!(benches);
