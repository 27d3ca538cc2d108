//! Decode-plane benchmarks for the LTF trace format: what does pulling a
//! suite workload back off disk cost per op, and what do the v2 stream
//! encoding, the zero-copy cursors, and the batched decode API buy over
//! the v1 trace plane?
//!
//! All three benchmarks decode the *same* workload (every core stream,
//! start to end) per iteration, so their `Melem/s` figures compare
//! directly:
//!
//! - `decode_v1` — the genuine pre-v2 trace plane: one seek-positioned
//!   `BufReader<File>` per core (64 KiB buffer, as the old replay path
//!   held), per-op [`ltf::reader::decode_op`] pulls through `io::Read`,
//!   absolute varint addresses. The file sits in page cache, so this
//!   measures decode plus buffered-read overhead, not disk.
//! - `decode_v2` — the zero-copy [`LtfTrace`] cursor over one shared
//!   buffer, delta-compressed streams, one op per virtual call.
//! - `decode_v2_batch` — the same cursor drained through
//!   [`TraceSource::next_ops`], which is how the engine's per-core refill
//!   buffer actually consumes traces.

use std::io::{BufReader, Seek, SeekFrom, Write};

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lacc_sim::ltf::{self, LtfTrace, SharedBuf};
use lacc_sim::trace::TraceOp;
use lacc_sim::TraceSource;
use lacc_workloads::Benchmark;

/// Matches the engine's per-core refill batch (`LOCAL_BATCH`).
const BATCH: usize = 64;

/// Per-core read-buffer size of the pre-v2 replay path.
const STREAM_BUF_BYTES: usize = 64 * 1024;

fn corpus_workload() -> lacc_sim::trace::Workload {
    Benchmark::WaterSp.build(8, 0.1)
}

fn bench_ltf(c: &mut Criterion) {
    let v1 = ltf::workload_to_ltf_bytes(corpus_workload()).expect("v1 encode");
    let v2 = ltf::workload_to_ltf_bytes_v2(corpus_workload()).expect("v2 encode");
    let (_, ops) = ltf::read_workload_bytes(&v1).expect("v1 decodes");
    let total_ops: u64 = ops.iter().map(|core| core.len() as u64).sum();
    println!(
        "ltf corpus: {} ops, v1 {} bytes, v2 {} bytes ({:.2}x)",
        total_ops,
        v1.len(),
        v2.len(),
        v1.len() as f64 / v2.len() as f64,
    );

    let mut g = c.benchmark_group("ltf");
    g.throughput(Throughput::Elements(total_ops));

    // The v1 plane read files, so the baseline does too: dump the image
    // once, then hold one buffered handle per core exactly as the old
    // `read_workload` did.
    let dir = std::env::temp_dir();
    let v1_path = dir.join(format!("lacc_bench_ltf_v1_{}.ltf", std::process::id()));
    std::fs::File::create(&v1_path)
        .and_then(|mut f| f.write_all(&v1))
        .expect("write v1 corpus file");
    let (header_v1, offsets_v1) = ltf::read_header_bytes(&v1).expect("v1 header");
    assert_eq!(header_v1.version, ltf::VERSION);
    let mut readers: Vec<BufReader<std::fs::File>> = offsets_v1
        .iter()
        .map(|_| {
            let file = std::fs::File::open(&v1_path).expect("open v1 corpus file");
            BufReader::with_capacity(STREAM_BUF_BYTES, file)
        })
        .collect();
    g.bench_function("decode_v1", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for (r, &offset) in readers.iter_mut().zip(&offsets_v1) {
                r.seek(SeekFrom::Start(offset)).expect("seek to stream");
                while let Some(op) = ltf::reader::decode_op(r).expect("valid v1 stream") {
                    black_box(op);
                    n += 1;
                }
            }
            assert_eq!(n, total_ops);
            n
        });
    });

    let buf = SharedBuf::from_vec(v2);
    let (header_v2, offsets_v2) = ltf::read_header_bytes(&buf).expect("v2 header");
    assert_eq!(header_v2.version, ltf::VERSION_V2);
    let mut traces: Vec<LtfTrace> = offsets_v2
        .iter()
        .map(|&o| LtfTrace::open(buf.clone(), o as usize, &header_v2).expect("valid v2 stream"))
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

    drop(readers);
    let _ = std::fs::remove_file(&v1_path);
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(200);
    targets = bench_ltf
);
criterion_main!(benches);
