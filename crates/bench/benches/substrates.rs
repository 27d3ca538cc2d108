//! Micro-benchmarks of the substrate crates: the structures every
//! simulated memory access touches.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lacc_cache::{DataSlab, LineData, SetAssocCache};
use lacc_core::classifier::{LocalityClassifier, RemovalReason, RequestHints};
use lacc_core::sharer::SharerTracker;
use lacc_core::DirectoryKind;
use lacc_model::config::ClassifierConfig;
use lacc_model::{CoreId, CoreSet, LineAddr, LineMap};
use lacc_network::MeshNetwork;
use lacc_sim::engine::queue::CalendarQueue;

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("set_assoc_cache");
    g.bench_function("hit_get_mut", |b| {
        let mut cache: SetAssocCache<u64> = SetAssocCache::new(128, 4);
        for l in 0..512u64 {
            cache.insert(LineAddr::new(l), l);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 512;
            black_box(cache.get_mut(LineAddr::new(i)));
        });
    });
    g.bench_function("miss_insert_evict", |b| {
        let mut cache: SetAssocCache<u64> = SetAssocCache::new(128, 4);
        let mut l = 0u64;
        b.iter(|| {
            l += 1;
            black_box(cache.insert(LineAddr::new(l), l));
        });
    });
    g.finish();
}

/// The data-plane question behind zero-copy residents: what does shipping
/// a line grant cost as a handle retain vs the old 64-byte
/// slab-read/realloc round trip, and what does the copy-on-write split
/// cost when a write does hit a shared slot?
fn bench_slab(c: &mut Criterion) {
    let mut g = c.benchmark_group("slab");
    g.bench_function("alias_grant", |b| {
        let mut slab = DataSlab::new();
        let resident = slab.alloc(LineData::from_words([7; 8]));
        b.iter(|| {
            // Grant send + consume as handle traffic: no bytes move.
            let grant = slab.retain(resident);
            slab.release(black_box(grant));
        });
    });
    g.bench_function("copy_grant", |b| {
        let mut slab = DataSlab::new();
        let resident = slab.alloc(LineData::from_words([7; 8]));
        b.iter(|| {
            // The pre-refactor path: read the resident line out by value,
            // allocate a fresh slot for the grant, release on delivery.
            let line = *slab.get(resident);
            let grant = slab.alloc(line);
            slab.release(black_box(grant));
        });
    });
    g.bench_function("cow_write", |b| {
        let mut slab = DataSlab::new();
        let resident = slab.alloc(LineData::from_words([7; 8]));
        let mut i = 0u64;
        b.iter(|| {
            // Worst case for a store: the slot is shared, so the write
            // splits it (one 64-byte clone) before landing.
            i += 1;
            let alias = slab.retain(resident);
            let own = slab.make_mut(alias);
            slab.get_mut(own).set_word((i % 8) as usize, i);
            slab.release(black_box(own));
        });
    });
    g.finish();
}

fn bench_network(c: &mut Criterion) {
    let mut g = c.benchmark_group("mesh");
    g.bench_function("unicast_64tiles", |b| {
        let mut net = MeshNetwork::new(64, 1, 1);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            black_box(net.unicast(CoreId::new(0), CoreId::new(63), 9, t));
        });
    });
    g.bench_function("broadcast_64tiles", |b| {
        let mut net = MeshNetwork::new(64, 1, 1);
        let mut t = 0u64;
        b.iter(|| {
            t += 10;
            black_box(net.broadcast(CoreId::new(27), 1, t));
        });
    });
    g.finish();
}

fn bench_sharers(c: &mut Criterion) {
    let mut g = c.benchmark_group("sharer_tracker");
    for (label, kind) in
        [("full_map", DirectoryKind::FullMap), ("ackwise4", DirectoryKind::ackwise4())]
    {
        g.bench_function(format!("{label}_add_remove_8"), |b| {
            b.iter(|| {
                let mut t = SharerTracker::new(kind, 64);
                for i in 0..8 {
                    t.add(CoreId::new(i));
                }
                black_box(t.invalidation_plan(None));
                for i in 0..8 {
                    t.remove(CoreId::new(i));
                }
                black_box(t.count())
            });
        });
    }
    g.finish();
}

fn bench_classifier(c: &mut Criterion) {
    let mut g = c.benchmark_group("classifier");
    let hints = RequestHints { set_min_last_access: 10, set_has_invalid: false };
    for (label, cfg) in [
        ("limited3", ClassifierConfig::isca13_default()),
        (
            "complete",
            ClassifierConfig {
                tracking: lacc_model::config::TrackingKind::Complete,
                ..ClassifierConfig::isca13_default()
            },
        ),
    ] {
        g.bench_function(format!("{label}_request_cycle"), |b| {
            let mut cl = LocalityClassifier::new(&cfg, 64);
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % 64;
                let core = CoreId::new(i);
                black_box(cl.classify_request(core, hints, 5));
                if i % 9 == 0 {
                    cl.on_sharer_removed(core, 1, RemovalReason::Eviction);
                }
            });
        });
    }
    g.finish();
}

fn bench_line_maps(c: &mut Criterion) {
    // The per-tile transaction/waiter/backing tables: LineAddr keys, a
    // lookup per simulated memory access (std's SipHash default was
    // ~4.8x slower; DESIGN.md §6).
    let mut g = c.benchmark_group("line_map");
    g.bench_function("fx_get_hit_1k", |b| {
        let mut m: LineMap<u64> = LineMap::default();
        for i in 0..1024u64 {
            m.insert(LineAddr::new(i * 3), i);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 1024;
            black_box(m.get(&LineAddr::new(i * 3)))
        });
    });
    g.bench_function("fx_insert_remove", |b| {
        let mut m: LineMap<u64> = LineMap::default();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            m.insert(LineAddr::new(i % 512), i);
            black_box(m.remove(&LineAddr::new((i + 256) % 512)))
        });
    });
    g.finish();
}

fn bench_core_sets(c: &mut Criterion) {
    // The sharer-list representation: insert 8 sharers, plan an
    // invalidation round (iterate), tear down (a `Vec<CoreId>` was ~3.5x
    // slower; DESIGN.md §6).
    let mut g = c.benchmark_group("core_set");
    g.bench_function("bitset_fill_iter_drain_8", |b| {
        b.iter(|| {
            let mut s = CoreSet::new();
            for i in 0..8 {
                s.insert(CoreId::new(i * 7));
            }
            let mut acc = 0usize;
            for core in &s {
                acc += core.index();
            }
            for i in 0..8 {
                s.remove(CoreId::new(i * 7));
            }
            black_box((acc, s.is_empty()))
        });
    });
    g.finish();
}

fn bench_event_queues(c: &mut Criterion) {
    // The simulator's event-loop backbone under a protocol-like schedule:
    // a rolling window of short delays (hops, L2, DRAM) at 64 in-flight
    // events (the `BinaryHeap` the calendar queue replaced was ~3.7x
    // slower; DESIGN.md §6).
    const DELAYS: [u64; 8] = [2, 2, 4, 7, 9, 14, 32, 100];
    let mut g = c.benchmark_group("event_queue");
    g.bench_function("calendar_push_pop_64live", |b| {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        for i in 0..64u32 {
            q.push(u64::from(i), i);
        }
        let mut k = 0usize;
        b.iter(|| {
            let (now, id) = q.pop().expect("queue stays at 64 events");
            k = (k + 1) % DELAYS.len();
            q.push(now + DELAYS[k], id);
            black_box(now)
        });
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_cache, bench_slab, bench_network, bench_sharers, bench_classifier,
        bench_line_maps, bench_core_sets, bench_event_queues
);
criterion_main!(benches);
