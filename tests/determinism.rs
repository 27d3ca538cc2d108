//! Bit-for-bit determinism across repeated runs: same seed, same machine,
//! same report — the property every experiment in EXPERIMENTS.md relies on.

use lacc::prelude::*;

fn fingerprint(r: &SimReport) -> String {
    format!(
        "{}|{:?}|{:?}|{:?}|{}|{}|{}|{:?}|{:?}",
        r.completion_time,
        r.breakdown,
        r.l1d,
        r.l1i,
        r.energy.total(),
        r.net.link_flits,
        r.dram.accesses,
        r.inval_histogram.bins(),
        r.evict_histogram.bins(),
    )
}

#[test]
fn repeated_runs_are_identical() {
    for b in [Benchmark::Streamcluster, Benchmark::Radix, Benchmark::Tsp] {
        let run = || {
            let w = b.build(8, 0.05);
            Simulator::new(SystemConfig::small_for_tests(8), w).unwrap().run()
        };
        assert_eq!(fingerprint(&run()), fingerprint(&run()), "{}", b.name());
    }
}

#[test]
fn different_seeded_benchmarks_differ() {
    // Sanity check that the fingerprint actually discriminates.
    let run = |b: Benchmark| {
        let w = b.build(8, 0.05);
        Simulator::new(SystemConfig::small_for_tests(8), w).unwrap().run()
    };
    assert_ne!(fingerprint(&run(Benchmark::Streamcluster)), fingerprint(&run(Benchmark::Canneal)));
}

#[test]
fn scale_changes_only_length_not_validity() {
    for scale in [0.02, 0.08] {
        let w = Benchmark::Barnes.build(8, scale);
        let r = Simulator::new(SystemConfig::small_for_tests(8), w).unwrap().run();
        assert_eq!(r.monitor.violations, 0, "scale {scale}");
    }
}

#[test]
fn ltf_replay_is_report_identical_for_every_suite_workload() {
    // Determinism must survive the trip through the on-disk trace format:
    // for each benchmark, simulating the generator's workload and
    // simulating its .ltf dump must produce byte-identical reports.
    let cores = 4;
    let scale = 0.02;
    let dir = std::env::temp_dir();
    for b in Benchmark::ALL {
        let run =
            |w: Workload| Simulator::new(SystemConfig::small_for_tests(cores), w).unwrap().run();
        let direct = run(b.build(cores, scale));

        let path = dir.join(format!("lacc_replay_eq_{}.ltf", b.name()));
        b.build(cores, scale).dump_ltf_v2(&path).unwrap();
        let replay = run(ltf::read_workload(&path).unwrap());
        let tag = b.name();
        assert_eq!(direct.workload, replay.workload, "{tag}");
        assert_eq!(fingerprint(&direct), fingerprint(&replay), "{tag}");
        assert_eq!(replay.monitor.violations, 0, "{tag}");
        std::fs::remove_file(&path).ok();
    }
}
