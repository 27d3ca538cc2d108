//! The four benchmark workloads and one measured pass of each.
//!
//! A pass is set-up (trace generation, LTF v2 encode and open where used,
//! simulator construction) followed by the timed simulations. Everything
//! goes through the libraries' public entry points: `Cli::run_jobs` for
//! the sweep, `Phases` for generated traces, `ltf` for replayed traces and
//! `Simulator` for single runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use lacc_experiments::{config_for_cores, Cli};
use lacc_model::SystemConfig;
use lacc_sim::{ltf, SimOptions, SimReport, Simulator, Workload};
use lacc_workloads::{Benchmark, Phases, Region};

/// Machine size of every workload: the Table-1 machine.
pub const CORES: usize = 64;
/// Scale of the 21 presets in the sweep (what the figure binaries use).
pub const SWEEP_SCALE: f64 = 1.0;
/// Scale of the replayed private-heavy recipes.
pub const REPLAY_SCALE: f64 = 30.0;
/// Scale of the sharing-heavy recipes.
pub const COHERENCE_SCALE: f64 = 4.0;
/// PCT values of the sweep: the paper's baseline and its chosen PCT.
pub const SWEEP_PCTS: [u32; 2] = [1, 4];

/// One of the benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// All 21 presets at PCT 1 and 4 through the sweep pool.
    SuiteSweep,
    /// water-sp and susan at PCT 4, replayed from LTF v2 files.
    PrivateReplay,
    /// ocean-nc, concomp and canneal at PCT 4 (word accesses at the L2).
    CoherencePct4,
    /// The same recipes at PCT 1 (whole-line grants and invalidations).
    CoherencePct1,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::SuiteSweep, Kind::PrivateReplay, Kind::CoherencePct4, Kind::CoherencePct1];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SuiteSweep => "suite_sweep",
            Kind::PrivateReplay => "private_replay",
            Kind::CoherencePct4 => "coherence_pct4",
            Kind::CoherencePct1 => "coherence_pct1",
        }
    }

    pub fn by_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The trace scale this workload runs at.
    pub fn scale(self) -> f64 {
        match self {
            Kind::SuiteSweep => SWEEP_SCALE,
            Kind::PrivateReplay => REPLAY_SCALE,
            Kind::CoherencePct4 | Kind::CoherencePct1 => COHERENCE_SCALE,
        }
    }

    /// Whether the workload's traces come from `--seed` (the sweep keeps
    /// the presets' own seeds, as the figure binaries do).
    pub fn uses_seed(self) -> bool {
        self != Kind::SuiteSweep
    }

    /// The single-process recipes and their PCT (empty for the sweep).
    fn recipes(self) -> Vec<(Recipe, u32)> {
        match self {
            Kind::SuiteSweep => Vec::new(),
            Kind::PrivateReplay => vec![(Recipe::WaterSp, 4), (Recipe::Susan, 4)],
            Kind::CoherencePct4 => {
                vec![(Recipe::OceanNc, 4), (Recipe::Concomp, 4), (Recipe::Canneal, 4)]
            }
            Kind::CoherencePct1 => {
                vec![(Recipe::OceanNc, 1), (Recipe::Concomp, 1), (Recipe::Canneal, 1)]
            }
        }
    }
}

/// The Table-2 presets the single-process workloads compose with their own
/// seed. Each follows its preset in `lacc_workloads::suite` exactly; only
/// the generator seed differs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Recipe {
    WaterSp,
    Susan,
    OceanNc,
    Concomp,
    Canneal,
}

impl Recipe {
    fn name(self) -> &'static str {
        match self {
            Recipe::WaterSp => "water-sp",
            Recipe::Susan => "susan",
            Recipe::OceanNc => "ocean-nc",
            Recipe::Concomp => "concomp",
            Recipe::Canneal => "canneal",
        }
    }

    /// Generates the recipe's traces for `CORES` cores.
    fn build(self, seed: u64, scale: f64) -> Workload {
        let cores = CORES;
        let s = |n: u32| -> u32 { ((n as f64 * scale).round() as u32).max(1) };
        let mut p = Phases::new(cores, recipe_seed(seed, self));
        let mut decls = Vec::new();
        let hot: Vec<Region> = (0..cores).map(|c| Region::private(c, 0, 96)).collect();
        let stream: Vec<Region> = (0..cores).map(|c| Region::private(c, 4096, 4096)).collect();
        for (c, r) in hot.iter().enumerate() {
            decls.push(r.decl_private(c));
        }
        for (c, r) in stream.iter().enumerate() {
            decls.push(r.decl_private(c));
        }
        let instr_lines = match self {
            Recipe::WaterSp => {
                let mols: Vec<Region> = (0..cores).map(|c| Region::private(c, 0, 64)).collect();
                let forces = Region::shared(0, 64);
                decls.push(forces.decl_shared());
                p.compute_per_access = 3;
                p.private_hot(&mols, s(6000), 0.2);
                p.barrier();
                p.shared_read_write(&forces, s(100), 6, 10);
                20
            }
            Recipe::Susan => {
                let img: Vec<Region> = (0..cores).map(|c| Region::private(c, 0, 96)).collect();
                p.compute_per_access = 4;
                p.private_hot(&img, s(6000), 0.25);
                p.private_stream(&[Region::private(0, 4096, 128)], 1, 1, 0.1);
                24
            }
            Recipe::OceanNc => {
                let grid = Region::shared(0, (cores as u64) * 96);
                decls.push(grid.decl_shared());
                p.private_stream(&stream, 2, 4, 0.3);
                p.barrier();
                p.stencil(&grid, s(3).min(6), 2);
                p.shared_read_write(&grid, s(200), 1, 3);
                48
            }
            Recipe::Concomp => {
                let graph = Region::shared(0, 12288);
                decls.push(graph.decl_shared());
                p.compute_per_access = 0;
                p.graph_walk(&graph, s(1800), 1, 0.3);
                p.private_hot(&hot, s(5000), 0.1);
                24
            }
            Recipe::Canneal => {
                let netlist = Region::shared(0, 6144);
                decls.push(netlist.decl_shared());
                p.graph_walk(&netlist, s(1200), 1, 0.25);
                p.private_hot(&hot, s(5000), 0.2);
                32
            }
        };
        p.finish(self.name(), decls, instr_lines)
    }
}

/// The generator seed of one recipe under benchmark seed `seed`: a
/// SplitMix64 step, so neighbouring seeds give unrelated traces.
fn recipe_seed(seed: u64, recipe: Recipe) -> u64 {
    let mut z = seed ^ ((recipe as u64 + 1) << 56);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The sweep's grid: every preset at every PCT, labelled `pct<N>`.
fn sweep_jobs() -> Vec<(String, Benchmark, SystemConfig)> {
    let mut jobs = Vec::new();
    for b in Benchmark::ALL {
        for pct in SWEEP_PCTS {
            jobs.push((format!("pct{pct}"), b, config_for_cores(CORES).with_pct(pct)));
        }
    }
    jobs
}

/// The sweep invocation a figure binary would make with `--jobs workers`.
fn sweep_cli(workers: usize, monitor: bool) -> Cli {
    Cli {
        scale: SWEEP_SCALE,
        cores: CORES,
        jobs: workers,
        quiet: true,
        no_monitor: !monitor,
        ..Cli::default()
    }
}

/// Host worker threads the sweep uses (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Set-up cost of one pass, split by layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// `Phases` generation (`Benchmark::build` for the sweep).
    pub build_s: f64,
    /// LTF v2 encode to a file.
    pub encode_s: f64,
    /// `ltf::read_workload` (mmap and full validation).
    pub open_s: f64,
    /// `Simulator::with_options`.
    pub ctor_s: f64,
    /// Trace ops written to LTF files.
    pub ltf_ops: u64,
    /// Bytes of the LTF files.
    pub ltf_bytes: u64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.encode_s + self.open_s + self.ctor_s
    }
}

/// What one simulation produced: its report, or the panic message.
pub type Outcome = (String, Result<SimReport, String>);

/// One measured pass of a workload.
pub struct Pass {
    pub setup: Setup,
    /// Host wall time of the simulations alone.
    pub wall_s: f64,
    /// Wall time of each simulation (single-process workloads only).
    pub sim_s: Vec<f64>,
    /// One outcome per simulation, in a fixed order.
    pub outcomes: Vec<Outcome>,
}

/// Runs one pass of `kind`: set-up, then the simulations.
///
/// `work_dir` holds the LTF files of replayed workloads; they are deleted
/// before this returns.
pub fn run_pass(kind: Kind, seed: u64, monitor: bool, work_dir: &Path) -> Pass {
    match kind {
        Kind::SuiteSweep => sweep_pass(monitor),
        _ => single_pass(kind, seed, monitor, work_dir),
    }
}

fn sweep_pass(monitor: bool) -> Pass {
    let opts = SimOptions { monitor, ..SimOptions::default() };
    let mut setup = Setup::default();
    // Each grid point's workload and simulator, built once outside the
    // pool and dropped; the pool rebuilds them inside the timed sweep.
    for (_, bench, cfg) in sweep_jobs() {
        let t = Instant::now();
        let w = bench.build(CORES, SWEEP_SCALE);
        let built = Instant::now();
        let sim = Simulator::with_options(cfg, w, opts).expect("Table-1 machine is valid");
        setup.ctor_s += built.elapsed().as_secs_f64();
        setup.build_s += (built - t).as_secs_f64();
        drop(sim);
    }
    let jobs = sweep_jobs();
    let labels: Vec<String> = jobs.iter().map(|(l, b, _)| format!("{l}/{}", b.name())).collect();
    let cli = sweep_cli(nproc(), monitor);
    let t = Instant::now();
    let results = catch_unwind(AssertUnwindSafe(|| cli.run_jobs(jobs)));
    let wall_s = t.elapsed().as_secs_f64();
    let outcomes = match results {
        Ok(results) => labels
            .into_iter()
            .zip(results.iter())
            .map(|(label, (_, report))| (label, Ok(report.clone())))
            .collect(),
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            labels.into_iter().map(|label| (label, Err(msg.clone()))).collect()
        }
    };
    Pass { setup, wall_s, sim_s: Vec::new(), outcomes }
}

/// Runs every sweep grid point on its own through `Cli::run_jobs` with
/// `jobs = 1`, returning each one's wall time and outcome.
pub fn sweep_serial() -> Vec<(f64, Outcome)> {
    let cli = sweep_cli(1, true);
    sweep_jobs()
        .into_iter()
        .map(|(label, bench, cfg)| {
            let key = format!("{label}/{}", bench.name());
            let t = Instant::now();
            let res = catch_unwind(AssertUnwindSafe(|| cli.run_jobs(vec![(label, bench, cfg)])));
            let secs = t.elapsed().as_secs_f64();
            let out = match res {
                Ok(r) => {
                    r.iter().next().map(|(_, rep)| rep.clone()).ok_or_else(|| "no report".into())
                }
                Err(p) => Err(panic_message(p.as_ref())),
            };
            (secs, (key, out))
        })
        .collect()
}

/// Cost hints of the sweep grid in submission order (the pool dispatches
/// largest first by these).
pub fn sweep_cost_hints() -> Vec<u64> {
    sweep_jobs().iter().map(|(_, b, _)| b.cost_hint()).collect()
}

fn single_pass(kind: Kind, seed: u64, monitor: bool, work_dir: &Path) -> Pass {
    let opts = SimOptions { monitor, ..SimOptions::default() };
    let scale = kind.scale();
    let mut setup = Setup::default();
    let mut sims = Vec::new();
    for (recipe, pct) in kind.recipes() {
        let cfg = config_for_cores(CORES).with_pct(pct);
        let t = Instant::now();
        let mut w = recipe.build(seed, scale);
        setup.build_s += t.elapsed().as_secs_f64();
        if kind == Kind::PrivateReplay {
            let path = ltf_path(work_dir, recipe);
            let t = Instant::now();
            let summary = w.dump_ltf_v2(&path).expect("LTF v2 encode inside the checkout");
            setup.encode_s += t.elapsed().as_secs_f64();
            setup.ltf_ops += summary.total_ops();
            setup.ltf_bytes += summary.bytes;
            let t = Instant::now();
            w = ltf::read_workload(&path).expect("the file just written decodes");
            setup.open_s += t.elapsed().as_secs_f64();
            // The open mapping keeps the bytes alive; the name can go.
            std::fs::remove_file(&path).ok();
        }
        let t = Instant::now();
        let sim = Simulator::with_options(cfg, w, opts).expect("Table-1 machine is valid");
        setup.ctor_s += t.elapsed().as_secs_f64();
        sims.push((format!("pct{pct}/{}", recipe.name()), sim));
    }
    let mut outcomes = Vec::with_capacity(sims.len());
    let mut sim_s = Vec::with_capacity(sims.len());
    let t = Instant::now();
    for (label, sim) in sims {
        let s = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| sim.run())).map_err(|p| panic_message(&*p));
        sim_s.push(s.elapsed().as_secs_f64());
        outcomes.push((label, res));
    }
    let wall_s = t.elapsed().as_secs_f64();
    Pass { setup, wall_s, sim_s, outcomes }
}

fn ltf_path(work_dir: &Path, recipe: Recipe) -> PathBuf {
    work_dir.join(format!("{}-{}.ltf", std::process::id(), recipe.name()))
}

/// Pulls every op out of `w`'s traces in batches, returning the count.
fn drain(w: Workload) -> u64 {
    let mut ops = 0u64;
    let mut buf = Vec::with_capacity(4096);
    for mut t in w.traces {
        while t.next_ops(&mut buf, 4096) > 0 {
            ops += buf.len() as u64;
            std::hint::black_box(&buf);
            buf.clear();
        }
    }
    ops
}

/// Generates every trace of `kind` and counts its ops
/// (`workloads.trace_ops`).
pub fn count_trace_ops(kind: Kind, seed: u64) -> u64 {
    if kind == Kind::SuiteSweep {
        sweep_jobs().into_iter().map(|(_, b, _)| drain(b.build(CORES, SWEEP_SCALE))).sum()
    } else {
        kind.recipes().into_iter().map(|(r, _)| drain(r.build(seed, kind.scale()))).sum()
    }
}

/// Decode cost of the replayed workload's LTF v2 files in ns per op:
/// encodes each recipe, opens it, and drains every per-core cursor.
/// `None` for workloads that do not replay.
pub fn ltf_decode_ns_per_op(kind: Kind, seed: u64, work_dir: &Path) -> Option<f64> {
    if kind != Kind::PrivateReplay {
        return None;
    }
    let (mut secs, mut ops) = (0.0, 0u64);
    for (recipe, _) in kind.recipes() {
        let path = ltf_path(work_dir, recipe);
        recipe.build(seed, kind.scale()).dump_ltf_v2(&path).expect("LTF v2 encode");
        let w = ltf::read_workload(&path).expect("the file just written decodes");
        std::fs::remove_file(&path).ok();
        let t = Instant::now();
        ops += drain(w);
        secs += t.elapsed().as_secs_f64();
    }
    Some(secs * 1e9 / ops.max(1) as f64)
}

/// The text of a caught panic.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}
