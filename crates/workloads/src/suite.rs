//! The 21-benchmark suite of Table 2, as synthetic trace presets.
//!
//! Each preset composes the pattern library (`gen.rs`) with parameters
//! chosen to reproduce the benchmark's published character: the L1-D miss
//! rate magnitude (Figure 10), the eviction/invalidation utilization mix
//! (Figures 1–2), which miss classes convert to word misses (§5.1), and
//! the Limited_1 pathologies of §5.3 (radix: first sharer wrongly remote;
//! bodytrack: first sharer wrongly private). DESIGN.md §5 records the
//! correspondence; `problem_size()` quotes Table 2.
//!
//! Presets scale: `scale` multiplies access counts (figures use 1.0; smoke
//! tests use ~0.05).

use lacc_sim::Workload;

use crate::gen::Phases;
use crate::regions::Region;

/// The 21 benchmarks of Table 2.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)] // the variants are the benchmark names themselves
pub enum Benchmark {
    Radix,
    LuNc,
    Barnes,
    OceanNc,
    WaterSp,
    Raytrace,
    Blackscholes,
    Streamcluster,
    Dedup,
    Bodytrack,
    Fluidanimate,
    Canneal,
    DijkstraSs,
    DijkstraAp,
    Patricia,
    Susan,
    Concomp,
    Community,
    Tsp,
    Dfs,
    Matmul,
}

impl Benchmark {
    /// All benchmarks in the paper's figure order.
    pub const ALL: [Benchmark; 21] = [
        Benchmark::Radix,
        Benchmark::LuNc,
        Benchmark::Barnes,
        Benchmark::OceanNc,
        Benchmark::WaterSp,
        Benchmark::Raytrace,
        Benchmark::Blackscholes,
        Benchmark::Streamcluster,
        Benchmark::Dedup,
        Benchmark::Bodytrack,
        Benchmark::Fluidanimate,
        Benchmark::Canneal,
        Benchmark::DijkstraSs,
        Benchmark::DijkstraAp,
        Benchmark::Patricia,
        Benchmark::Susan,
        Benchmark::Concomp,
        Benchmark::Community,
        Benchmark::Tsp,
        Benchmark::Dfs,
        Benchmark::Matmul,
    ];

    /// The display name used in the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Radix => "radix",
            Benchmark::LuNc => "lu-nc",
            Benchmark::Barnes => "barnes",
            Benchmark::OceanNc => "ocean-nc",
            Benchmark::WaterSp => "water-sp",
            Benchmark::Raytrace => "raytrace",
            Benchmark::Blackscholes => "blacksch.",
            Benchmark::Streamcluster => "streamclus.",
            Benchmark::Dedup => "dedup",
            Benchmark::Bodytrack => "bodytrack",
            Benchmark::Fluidanimate => "fluidanim.",
            Benchmark::Canneal => "canneal",
            Benchmark::DijkstraSs => "dijkstra-ss",
            Benchmark::DijkstraAp => "dijkstra-ap",
            Benchmark::Patricia => "patricia",
            Benchmark::Susan => "susan",
            Benchmark::Concomp => "concomp",
            Benchmark::Community => "community",
            Benchmark::Tsp => "tsp",
            Benchmark::Dfs => "dfs",
            Benchmark::Matmul => "matmul",
        }
    }

    /// Looks a benchmark up by its figure name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Benchmark> {
        Benchmark::ALL.iter().copied().find(|b| b.name() == name)
    }

    /// The Table 2 problem size of the original benchmark.
    #[must_use]
    pub fn problem_size(self) -> &'static str {
        match self {
            Benchmark::Radix => "1M Integers, radix 1024",
            Benchmark::LuNc => "512 x 512 matrix, 16 x 16 blocks",
            Benchmark::Barnes => "16K particles",
            Benchmark::OceanNc => "258 x 258 ocean",
            Benchmark::WaterSp => "512 molecules",
            Benchmark::Raytrace => "car",
            Benchmark::Blackscholes => "64K options",
            Benchmark::Streamcluster => "8192 points per block, 1 block",
            Benchmark::Dedup => "31 MB data",
            Benchmark::Bodytrack => "2 frames, 2000 particles",
            Benchmark::Fluidanimate => "5 frames, 100,000 particles",
            Benchmark::Canneal => "200,000 elements",
            Benchmark::DijkstraSs => "Graph with 4096 nodes",
            Benchmark::DijkstraAp => "Graph with 512 nodes",
            Benchmark::Patricia => "5000 IP address queries",
            Benchmark::Susan => "PGM picture 2.8 MB",
            Benchmark::Concomp => "Graph with 2^18 nodes",
            Benchmark::Community => "Graph with 2^16 nodes",
            Benchmark::Tsp => "16 cities",
            Benchmark::Dfs => "Graph with 876800 nodes",
            Benchmark::Matmul => "512 x 512 matrix",
        }
    }

    /// Relative cost of simulating this benchmark: its generated trace
    /// length (total ops, all cores) at the reference configuration of
    /// 64 cores and scale 1.0. Simulation time tracks trace length
    /// closely, so sweep schedulers use this to dispatch big benchmarks
    /// first and keep the tail of a parallel sweep short. The values are
    /// measured, not maintained by hand-waving — regenerate by draining
    /// `build(64, 1.0)` per benchmark if the generators change (a unit
    /// test cross-checks one of them).
    #[must_use]
    pub fn cost_hint(self) -> u64 {
        match self {
            Benchmark::Radix => 695_780,
            Benchmark::LuNc => 1_179_776,
            Benchmark::Barnes => 1_052_914,
            Benchmark::OceanNc => 2_460_992,
            Benchmark::WaterSp => 838_528,
            Benchmark::Raytrace => 1_171_264,
            Benchmark::Blackscholes => 1_417_280,
            Benchmark::Streamcluster => 704_128,
            Benchmark::Dedup => 610_624,
            Benchmark::Bodytrack => 2_896_816,
            Benchmark::Fluidanimate => 739_776,
            Benchmark::Canneal => 831_732,
            Benchmark::DijkstraSs => 849_792,
            Benchmark::DijkstraAp => 1_696_320,
            Benchmark::Patricia => 778_536,
            Benchmark::Susan => 899_136,
            Benchmark::Concomp => 469_819,
            Benchmark::Community => 1_023_462,
            Benchmark::Tsp => 1_091_712,
            Benchmark::Dfs => 677_864,
            Benchmark::Matmul => 2_359_360,
        }
    }

    /// The benchmark's suite in Table 2.
    #[must_use]
    pub fn suite(self) -> &'static str {
        match self {
            Benchmark::Radix
            | Benchmark::LuNc
            | Benchmark::Barnes
            | Benchmark::OceanNc
            | Benchmark::WaterSp
            | Benchmark::Raytrace => "SPLASH-2",
            Benchmark::Blackscholes
            | Benchmark::Streamcluster
            | Benchmark::Dedup
            | Benchmark::Bodytrack
            | Benchmark::Fluidanimate
            | Benchmark::Canneal => "PARSEC",
            Benchmark::DijkstraSs
            | Benchmark::DijkstraAp
            | Benchmark::Patricia
            | Benchmark::Susan => "Parallel MI Bench",
            Benchmark::Concomp | Benchmark::Community => "UHPC",
            Benchmark::Tsp | Benchmark::Dfs | Benchmark::Matmul => "Others",
        }
    }

    /// Builds the workload for `cores` cores at the given scale.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn build(self, cores: usize, scale: f64) -> Workload {
        assert!(cores > 0, "need at least one core");
        let s = |n: u32| -> u32 { ((n as f64 * scale).round() as u32).max(1) };
        let seed = 0xc0ffee ^ (self as u64);
        let mut p = Phases::new(cores, seed);
        let mut decls = Vec::new();

        // Per-core private arenas: [0..) hot set, [4096..) streams.
        let hot: Vec<Region> = (0..cores).map(|c| Region::private(c, 0, 96)).collect();
        let stream: Vec<Region> = (0..cores).map(|c| Region::private(c, 4096, 4096)).collect();
        for (c, r) in hot.iter().enumerate() {
            decls.push(r.decl_private(c));
        }
        for (c, r) in stream.iter().enumerate() {
            decls.push(r.decl_private(c));
        }

        let instr_lines;
        match self {
            Benchmark::Radix => {
                instr_lines = 24;
                let keys: Vec<Region> = (0..cores).map(|c| Region::private(c, 4096, 512)).collect();
                let hist = Region::shared(0, 96);
                let scatter = Region::shared(256, 256);
                decls.push(hist.decl_shared());
                decls.push(scatter.decl_shared());
                p.private_stream(&keys, 1, 1, 0.25);
                p.barrier();
                // §5.3 pathology: the first histogram sharer is low-reuse.
                p.asymmetric_sharing(&hist, s(150), 0, 1, 6);
                p.barrier();
                p.shared_read_write(&scatter, s(450), 1, 2);
            }
            Benchmark::LuNc => {
                instr_lines = 32;
                let blocks: Vec<Region> =
                    (0..cores).map(|c| Region::private(c, 4096, 1024)).collect();
                let panel = Region::shared(0, 256);
                decls.push(panel.decl_shared());
                p.private_stream(&blocks, 2, 2, 0.2);
                p.barrier();
                p.shared_stream(&panel, 2, 4, 0.08);
            }
            Benchmark::Barnes => {
                instr_lines = 56;
                let tree = Region::shared(0, 768);
                let leaves = Region::shared(896, 96);
                let bodies = Region::shared(1024, 128);
                decls.push(leaves.decl_shared());
                decls.push(tree.decl_shared());
                decls.push(bodies.decl_shared());
                p.private_hot(&hot, s(6000), 0.15);
                p.graph_walk(&tree, s(500), 1, 0.08);
                p.graph_walk(&leaves, s(200), 5, 0.05);
                p.barrier();
                p.shared_read_write(&bodies, s(150), 5, 8);
            }
            Benchmark::OceanNc => {
                instr_lines = 48;
                let grid = Region::shared(0, (cores as u64) * 96);
                decls.push(grid.decl_shared());
                p.private_stream(&stream, 2, 4, 0.3);
                p.barrier();
                p.stencil(&grid, s(3).min(6), 2);
                p.shared_read_write(&grid, s(200), 1, 3);
            }
            Benchmark::WaterSp => {
                instr_lines = 20;
                let mols: Vec<Region> = (0..cores).map(|c| Region::private(c, 0, 64)).collect();
                let forces = Region::shared(0, 64);
                decls.push(forces.decl_shared());
                p.compute_per_access = 3;
                p.private_hot(&mols, s(6000), 0.2);
                p.barrier();
                p.shared_read_write(&forces, s(100), 6, 10);
            }
            Benchmark::Raytrace => {
                instr_lines = 120;
                let scene = Region::shared(0, 4096);
                let objects = Region::shared(8192, 512);
                decls.push(scene.decl_shared());
                decls.push(objects.decl_shared());
                p.compute_per_access = 2;
                p.graph_walk(&scene, s(1400), 1, 0.0);
                p.graph_walk(&objects, s(350), 5, 0.0);
                p.private_hot(&hot, s(6000), 0.1);
            }
            Benchmark::Blackscholes => {
                instr_lines = 24;
                let opts: Vec<Region> =
                    (0..cores).map(|c| Region::private(c, 4096, 1024)).collect();
                p.compute_per_access = 2;
                p.private_hot(&hot, s(8000), 0.2);
                // Options re-streamed with one word per line per pass: the
                // recurring low-utilization traffic that converts capacity
                // misses into word misses and de-pollutes the hot set.
                p.private_stream(&opts, 3, 8, 0.1);
            }
            Benchmark::Streamcluster => {
                instr_lines = 40;
                let centers = Region::shared(0, 32);
                decls.push(centers.decl_shared());
                p.convoy(&centers, s(1500), 1, 1);
                p.barrier();
                p.private_hot(&hot, s(4000), 0.2);
            }
            Benchmark::Dedup => {
                instr_lines = 48;
                let pipe = Region::shared(0, 512);
                let hash = Region::shared(1024, 512);
                decls.push(pipe.decl_shared());
                decls.push(hash.decl_shared());
                p.producer_consumer(&pipe, s(8).min(16), 8);
                p.shared_read_write(&hash, s(250), 1, 3);
                p.private_hot(&hot, s(4000), 0.25);
            }
            Benchmark::Bodytrack => {
                instr_lines = 96;
                let model = Region::shared(0, 128);
                decls.push(model.decl_shared());
                // §5.3 pathology: the first sharer is high-reuse (private),
                // the population is low-reuse (wants remote).
                p.asymmetric_sharing(&model, s(200), 0, 8, 1);
                p.barrier();
                // Particle streaming evicts the one-touch model copies
                // from the L1s: their low utilization demotes the
                // population to remote. (Kept at half an L2 slice so the
                // model's directory entries — and the learned modes —
                // stay L2-resident.)
                let particles: Vec<Region> =
                    (0..cores).map(|c| Region::private(c, 4096, 1536)).collect();
                p.private_stream(&particles, 3, 4, 0.15);
                p.barrier();
                // Later frames re-read the model heavily; only two-way
                // transitions can promote back (Figure 14's 3.3x).
                p.shared_stream(&model, 8, 1, 0.0);
                p.private_hot(&hot, s(5000), 0.2);
            }
            Benchmark::Fluidanimate => {
                instr_lines = 48;
                let grid = Region::shared(0, (cores as u64) * 48);
                let cells = Region::shared(16384, 256);
                decls.push(grid.decl_shared());
                decls.push(cells.decl_shared());
                p.stencil(&grid, s(2).min(5), 4);
                p.private_hot(&hot, s(4500), 0.3);
                p.shared_read_write(&cells, s(350), 1, 4);
            }
            Benchmark::Canneal => {
                instr_lines = 32;
                let netlist = Region::shared(0, 6144);
                decls.push(netlist.decl_shared());
                p.graph_walk(&netlist, s(1200), 1, 0.25);
                p.private_hot(&hot, s(5000), 0.2);
            }
            Benchmark::DijkstraSs => {
                instr_lines = 24;
                let dist = Region::shared(0, 32);
                let frontier = Region::shared(128, 8);
                decls.push(dist.decl_shared());
                decls.push(frontier.decl_shared());
                p.convoy(&dist, s(1200), 1, 2);
                p.barrier();
                p.shared_stream(&dist, 8, 1, 0.0);
                p.migratory(&frontier, 0, s(30).min(60), 2);
                p.private_hot(&hot, s(3000), 0.15);
            }
            Benchmark::DijkstraAp => {
                instr_lines = 24;
                let graphs: Vec<Region> =
                    (0..cores).map(|c| Region::private(c, 4096, 1024)).collect();
                let results = Region::shared(0, 64);
                decls.push(results.decl_shared());
                p.private_stream(&graphs, 2, 2, 0.1);
                p.private_hot(&hot, s(5000), 0.2);
                p.shared_read_write(&results, s(60), 1, 2);
            }
            Benchmark::Patricia => {
                instr_lines = 40;
                let trie = Region::shared(0, 1536);
                decls.push(trie.decl_shared());
                p.graph_walk(&trie, s(900), 1, 0.2);
                p.private_hot(&hot, s(5000), 0.2);
            }
            Benchmark::Susan => {
                instr_lines = 24;
                let img: Vec<Region> = (0..cores).map(|c| Region::private(c, 0, 96)).collect();
                p.compute_per_access = 4;
                p.private_hot(&img, s(6000), 0.25);
                p.private_stream(&[Region::private(0, 4096, 128)], 1, 1, 0.1);
            }
            Benchmark::Concomp => {
                instr_lines = 24;
                let graph = Region::shared(0, 12288);
                decls.push(graph.decl_shared());
                p.compute_per_access = 0;
                p.graph_walk(&graph, s(1800), 1, 0.3);
                p.private_hot(&hot, s(5000), 0.1);
            }
            Benchmark::Community => {
                instr_lines = 32;
                let graph = Region::shared(0, 384);
                decls.push(graph.decl_shared());
                p.graph_walk(&graph, s(300), 6, 0.1);
                p.graph_walk(&graph, s(150), 1, 0.1);
                p.private_hot(&hot, s(6000), 0.15);
            }
            Benchmark::Tsp => {
                instr_lines = 32;
                let distances = Region::shared(0, 256);
                let bound = Region::shared(512, 2);
                decls.push(distances.decl_shared());
                decls.push(bound.decl_shared());
                p.shared_stream(&distances, 1, 1, 0.0);
                p.barrier();
                p.private_hot(&hot, s(6000), 0.3);
                p.migratory(&bound, 0, s(40).min(80), 1);
                p.shared_read_write(&bound, s(200), 1, 3);
            }
            Benchmark::Dfs => {
                instr_lines = 24;
                let graph = Region::shared(0, 2048);
                decls.push(graph.decl_shared());
                let stack: Vec<Region> =
                    (0..cores).map(|c| Region::private(c, 4096, 256)).collect();
                p.graph_walk(&graph, s(1000), 1, 0.2);
                p.private_stream(&stack, 2, 1, 0.5);
            }
            Benchmark::Matmul => {
                instr_lines = 16;
                let b_matrix = Region::shared(0, 512);
                decls.push(b_matrix.decl_shared());
                let a_rows: Vec<Region> =
                    (0..cores).map(|c| Region::private(c, 4096, 512)).collect();
                let c_out: Vec<Region> =
                    (0..cores).map(|c| Region::private(c, 8192, 1024)).collect();
                p.private_stream(&a_rows, 2, 1, 0.0);
                p.shared_stream(&b_matrix, 2, 1, 0.0);
                // Scatter into C: one word per line, recurring passes —
                // the pollution that PCT >= 2 removes (§5.1).
                p.private_stream(&c_out, 2, 8, 0.6);
            }
        }
        p.finish(self.name(), decls, instr_lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_have_unique_names() {
        let mut names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 21);
    }

    #[test]
    fn by_name_round_trips() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::by_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::by_name("nope"), None);
    }

    #[test]
    fn every_benchmark_builds_for_small_machines() {
        for b in Benchmark::ALL {
            let w = b.build(4, 0.02);
            assert_eq!(w.active_cores(), 4, "{}", b.name());
            assert!(!w.regions.is_empty() || b == Benchmark::Blackscholes, "{}", b.name());
            assert!(w.instr_lines > 0);
        }
    }

    #[test]
    fn suites_cover_table2() {
        let mut counts = std::collections::HashMap::new();
        for b in Benchmark::ALL {
            *counts.entry(b.suite()).or_insert(0) += 1;
        }
        assert_eq!(counts["SPLASH-2"], 6);
        assert_eq!(counts["PARSEC"], 6);
        assert_eq!(counts["Parallel MI Bench"], 4);
        assert_eq!(counts["UHPC"], 2);
        assert_eq!(counts["Others"], 3);
    }

    #[test]
    fn cost_hints_match_generated_trace_lengths() {
        // Check every baked-in hint against the generators; a failure
        // here means the table in `cost_hint` needs regenerating.
        for b in Benchmark::ALL {
            let measured: u64 = b
                .build(64, 1.0)
                .traces
                .into_iter()
                .map(|mut t| {
                    let mut n = 0u64;
                    while t.next_op().is_some() {
                        n += 1;
                    }
                    n
                })
                .sum();
            assert_eq!(b.cost_hint(), measured, "{} cost hint is stale", b.name());
        }
    }

    #[test]
    fn problem_sizes_are_nonempty() {
        for b in Benchmark::ALL {
            assert!(!b.problem_size().is_empty());
        }
    }

    #[test]
    fn dump_ltf_writes_a_replayable_file() {
        let path = std::env::temp_dir().join("lacc_suite_dump_ltf.ltf");
        let summary = Benchmark::WaterSp.build(2, 0.02).dump_ltf_v2(&path).unwrap();
        assert_eq!(summary.ops_per_core.len(), 2);
        assert!(summary.total_ops() > 0);
        let replayed = lacc_sim::ltf::read_workload(&path).unwrap();
        assert_eq!(replayed.name, "water-sp");
        assert_eq!(replayed.active_cores(), 2);
        std::fs::remove_file(&path).ok();
    }
}
