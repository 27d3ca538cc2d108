//! Coordinated multi-core trace generation.
//!
//! [`Phases`] owns one trace under construction per core (each op is
//! LTF-encoded as it is generated, see [`TraceBuilder`]) plus a
//! deterministic RNG, and
//! offers the reusable access patterns from which the 21 benchmark presets
//! are assembled (DESIGN.md §5): private streams with controllable spatial
//! locality, hot working sets, shared read-mostly regions with rotating
//! writers, producer-consumer pipelines, lock-protected migratory records,
//! stencil halo exchanges and irregular graph walks.
//!
//! The central design lever is **utilization**: a pattern that touches
//! `8 / stride` words per line visit produces exactly that private
//! utilization, which is what the locality classifier keys on. Patterns
//! document the utilization they generate.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use lacc_sim::trace::{default_instr_base, TraceBuilder, TraceOp, Workload};
use lacc_sim::RegionDecl;

use crate::regions::Region;

/// Multi-core trace builder.
pub struct Phases {
    traces: Vec<TraceBuilder>,
    rng: SmallRng,
    next_barrier: u32,
    /// Compute instructions inserted between memory accesses.
    pub compute_per_access: u32,
}

impl Phases {
    /// Creates a builder for `cores` cores with a deterministic seed.
    #[must_use]
    pub fn new(cores: usize, seed: u64) -> Self {
        Phases {
            traces: (0..cores).map(|_| TraceBuilder::new()).collect(),
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_1acc),
            next_barrier: 0,
            compute_per_access: 1,
        }
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.traces.len()
    }

    /// Emits a global barrier (all cores).
    pub fn barrier(&mut self) {
        let id = self.next_barrier;
        self.next_barrier += 1;
        for t in &mut self.traces {
            t.push(TraceOp::Barrier { id });
        }
    }

    fn pad(&mut self, core: usize) {
        if self.compute_per_access > 0 {
            self.traces[core].push(TraceOp::Compute(self.compute_per_access));
        }
    }

    fn load(&mut self, core: usize, region: &Region, idx: u64, word: u64) {
        self.pad(core);
        self.traces[core].push(TraceOp::Load { addr: region.addr(idx, word) });
    }

    fn store(&mut self, core: usize, region: &Region, idx: u64, word: u64) {
        self.pad(core);
        let value = self.rng.gen::<u64>();
        self.traces[core].push(TraceOp::Store { addr: region.addr(idx, word), value });
    }

    fn maybe_store(&mut self, core: usize, region: &Region, idx: u64, word: u64, wf: f64) {
        if self.rng.gen_bool(wf) {
            self.store(core, region, idx, word);
        } else {
            self.load(core, region, idx, word);
        }
    }

    /// Each core walks its own region sequentially, touching every
    /// `stride`-th word: per-line utilization = `8 / stride`. `passes > 1`
    /// with a region larger than the L1 produces capacity misses.
    pub fn private_stream(
        &mut self,
        regions: &[Region],
        passes: u32,
        stride: u64,
        write_frac: f64,
    ) {
        let stride = stride.clamp(1, 8);
        for core in 0..self.cores() {
            let r = regions[core % regions.len()];
            for _ in 0..passes {
                for l in 0..r.lines {
                    let mut w = 0;
                    while w < 8 {
                        self.maybe_store(core, &r, l, w, write_frac);
                        w += stride;
                    }
                }
            }
        }
    }

    /// Each core performs `accesses` random word accesses within its own
    /// small region (high temporal locality; stays private at any PCT if
    /// the region fits the L1).
    pub fn private_hot(&mut self, regions: &[Region], accesses: u32, write_frac: f64) {
        for core in 0..self.cores() {
            let r = regions[core % regions.len()];
            for _ in 0..accesses {
                let idx = self.rng.gen_range(0..r.lines);
                let word = self.rng.gen_range(0..8);
                self.maybe_store(core, &r, idx, word, write_frac);
            }
        }
    }

    /// All cores walk the shared region (each starting at a different
    /// offset), touching every `stride`-th word: read-shared streaming
    /// with utilization `8 / stride` per residency.
    pub fn shared_stream(&mut self, region: &Region, passes: u32, stride: u64, write_frac: f64) {
        let stride = stride.clamp(1, 8);
        let n = self.cores() as u64;
        for core in 0..self.cores() {
            let offset = (core as u64 * region.lines) / n;
            for _ in 0..passes {
                for l in 0..region.lines {
                    let idx = offset + l;
                    let mut w = 0;
                    while w < 8 {
                        self.maybe_store(core, region, idx, w, write_frac);
                        w += stride;
                    }
                }
            }
        }
    }

    /// Read-mostly sharing with invalidations: every core performs
    /// `blocks` rounds of `reuse` reads of a random shared line; every
    /// `writer_period`-th round the core *writes* instead, invalidating
    /// the other readers. Private residencies therefore see roughly
    /// `reuse`-utilization before invalidation — the Figure 1 shape.
    pub fn shared_read_write(
        &mut self,
        region: &Region,
        blocks: u32,
        reuse: u32,
        writer_period: u32,
    ) {
        for core in 0..self.cores() {
            for b in 0..blocks {
                let idx = self.rng.gen_range(0..region.lines);
                let is_writer =
                    writer_period > 0 && b % writer_period == (core as u32 % writer_period);
                if is_writer {
                    let w = self.rng.gen_range(0..8);
                    self.store(core, region, idx, w);
                } else {
                    let base_w = self.rng.gen_range(0..8);
                    for k in 0..reuse {
                        self.load(core, region, idx, (base_w + k as u64) % 8);
                    }
                }
            }
        }
    }

    /// Producer-consumer rounds: the rotating producer writes a chunk
    /// (all words: utilization 8), a barrier, then every consumer reads
    /// the chunk once (utilization up to 8), another barrier.
    pub fn producer_consumer(&mut self, region: &Region, rounds: u32, chunk_lines: u64) {
        for round in 0..rounds {
            let producer = round as usize % self.cores();
            let chunk = (round as u64 * chunk_lines) % region.lines.max(1);
            for l in 0..chunk_lines {
                for w in 0..8 {
                    self.store(producer, region, chunk + l, w);
                }
            }
            self.barrier();
            for core in 0..self.cores() {
                if core == producer {
                    continue;
                }
                for l in 0..chunk_lines {
                    for w in 0..8 {
                        self.load(core, region, chunk + l, w);
                    }
                }
            }
            self.barrier();
        }
    }

    /// Lock-protected migratory data: each core repeatedly acquires the
    /// lock, reads and updates the record lines, and releases. The record
    /// migrates between caches with full utilization per visit.
    pub fn migratory(&mut self, region: &Region, lock: u32, rounds: u32, record_lines: u64) {
        for round in 0..rounds {
            for core in 0..self.cores() {
                let _ = round;
                self.traces[core].push(TraceOp::Acquire { id: lock });
                for l in 0..record_lines {
                    for w in 0..4 {
                        self.load(core, region, l, w);
                    }
                    for w in 0..2 {
                        self.store(core, region, l, w);
                    }
                }
                self.traces[core].push(TraceOp::Release { id: lock });
            }
        }
    }

    /// Stencil iterations over per-core strips of a shared grid: each
    /// iteration every core reads+writes its own strip sequentially
    /// (utilization 8) and reads `halo` boundary lines of each neighbor
    /// strip, then a barrier.
    pub fn stencil(&mut self, region: &Region, iters: u32, halo: u64) {
        let cores = self.cores() as u64;
        let strip = (region.lines / cores.max(1)).max(1);
        for _ in 0..iters {
            for core in 0..self.cores() {
                let base = core as u64 * strip;
                for l in 0..strip {
                    for w in 0..8 {
                        self.load(core, region, base + l, w);
                    }
                    self.store(core, region, base + l, 0);
                }
                // Halo reads from the neighbours.
                for h in 0..halo {
                    let left = (base + region.lines - 1 - h) % region.lines;
                    let right = (base + strip + h) % region.lines;
                    for w in 0..4 {
                        self.load(core, region, left, w);
                        self.load(core, region, right, w);
                    }
                }
            }
            self.barrier();
        }
    }

    /// Convoyed sharing: every core walks the *same* line sequence in the
    /// same order (the paper's streamcluster/dijkstra-ss shape — all
    /// threads iterate over the same centers/distances). Every
    /// `writer_period`-th round a rotating core writes the line instead.
    /// At PCT 1 each write triggers an invalidation round over every
    /// convoy reader and the re-fetch storm serializes at the home (the
    /// *L2 cache waiting time* of Figure 9); with remote sharers the line
    /// never has private copies and the convoy degenerates to cheap word
    /// accesses.
    pub fn convoy(&mut self, region: &Region, rounds: u32, reuse: u32, writer_period: u32) {
        for core in 0..self.cores() {
            for r in 0..rounds {
                let idx = r as u64;
                let writer = writer_period > 0
                    && r % writer_period == 0
                    && (r / writer_period) as usize % self.cores() == core;
                if writer {
                    self.store(core, region, idx, 0);
                } else {
                    for k in 0..reuse {
                        self.load(core, region, idx, k as u64 % 8);
                    }
                }
            }
        }
    }

    /// Irregular pointer chasing over a (usually large) shared region:
    /// `steps` visits to random lines, reading `reads_per_node` words and
    /// writing with probability `write_frac` — utilization ≈
    /// `reads_per_node`, the low-locality traffic the protocol converts to
    /// word accesses.
    pub fn graph_walk(
        &mut self,
        region: &Region,
        steps: u32,
        reads_per_node: u32,
        write_frac: f64,
    ) {
        for core in 0..self.cores() {
            for _ in 0..steps {
                let idx = self.rng.gen_range(0..region.lines);
                let base_w = self.rng.gen_range(0..8);
                for k in 0..reads_per_node {
                    self.load(core, region, idx, (base_w + k as u64) % 8);
                }
                if write_frac > 0.0 && self.rng.gen_bool(write_frac) {
                    self.store(core, region, idx, base_w);
                }
            }
        }
    }

    /// Asymmetric sharing for the §5.3 Limited_1 pathologies: `first_core`
    /// touches each line `first_reuse` times, the rest touch it
    /// `rest_reuse` times.
    pub fn asymmetric_sharing(
        &mut self,
        region: &Region,
        blocks: u32,
        first_core: usize,
        first_reuse: u32,
        rest_reuse: u32,
    ) {
        for core in 0..self.cores() {
            let reuse = if core == first_core { first_reuse } else { rest_reuse };
            for _ in 0..blocks {
                let idx = self.rng.gen_range(0..region.lines);
                for k in 0..reuse {
                    self.load(core, region, idx, k as u64 % 8);
                }
            }
        }
    }

    /// Finishes the build: a final barrier, then the workload.
    #[must_use]
    pub fn finish(mut self, name: &str, regions: Vec<RegionDecl>, instr_lines: u64) -> Workload {
        self.barrier();
        Workload {
            name: name.to_string(),
            traces: self.traces.into_iter().map(TraceBuilder::finish).collect(),
            regions,
            instr_lines,
            instr_base: default_instr_base(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacc_core::rnuca::RegionClass;

    #[test]
    fn barriers_are_symmetric() {
        let mut p = Phases::new(4, 1);
        p.barrier();
        p.barrier();
        let w = p.finish("t", vec![], 0);
        assert_eq!(w.active_cores(), 4);
    }

    #[test]
    fn private_stream_utilization_is_controlled() {
        let mut p = Phases::new(1, 2);
        p.compute_per_access = 0;
        let r = Region::private(0, 0, 4);
        p.private_stream(&[r], 1, 2, 0.0);
        let w = p.finish("t", vec![], 0);
        // 4 lines x 4 words (stride 2) + final barrier.
        let mut n_loads = 0;
        let mut tr = w.traces.into_iter().next().unwrap();
        while let Some(op) = tr.next_op() {
            if matches!(op, TraceOp::Load { .. }) {
                n_loads += 1;
            }
        }
        assert_eq!(n_loads, 16);
    }

    #[test]
    fn generation_is_deterministic() {
        let build = || {
            let mut p = Phases::new(2, 42);
            let r = Region::shared(0, 32);
            p.shared_read_write(&r, 20, 3, 5);
            p.graph_walk(&r, 10, 2, 0.3);
            let mut ops = vec![];
            let w = p.finish("t", vec![r.decl(RegionClass::Shared)], 4);
            for mut t in w.traces {
                while let Some(op) = t.next_op() {
                    ops.push(format!("{op:?}"));
                }
            }
            ops
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn migratory_pairs_lock_ops() {
        let mut p = Phases::new(3, 7);
        let r = Region::shared(0, 4);
        p.migratory(&r, 0, 2, 2);
        let w = p.finish("t", vec![], 0);
        for mut t in w.traces {
            let mut depth = 0i32;
            while let Some(op) = t.next_op() {
                match op {
                    TraceOp::Acquire { .. } => depth += 1,
                    TraceOp::Release { .. } => depth -= 1,
                    _ => {}
                }
                assert!((0..=1).contains(&depth));
            }
            assert_eq!(depth, 0);
        }
    }
}
