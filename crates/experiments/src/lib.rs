//! # lacc-experiments — the figure/table regeneration harness
//!
//! Every table and figure of the paper's evaluation (§5) is a
//! [`figures::Figure`] value: the simulations it needs and how it prints
//! and saves them. Each has a binary of its own, and `all_figures` runs
//! them all in one process. All are built on the helpers here: the
//! sweep pool, normalization, geometric means and paper-style table
//! printing. Figures write a CSV into `./results/` and print the same
//! series to stdout. `docs/EXPERIMENTS.md` maps every figure and table to
//! its binary and documents the CSV schemas.
//!
//! Common CLI flags (hand-rolled; every binary accepts them):
//!
//! * `--scale <f64>` — workload scale factor (default 1.0);
//! * `--cores <n>` — machine size (default 64, Table 1);
//! * `--bench <name>` — restrict to one benchmark (repeatable; a
//!   repeated name counts once);
//! * `--jobs <n>` — worker threads for the sweep (default: all cores;
//!   `--jobs 1` runs serially on the calling thread);
//! * `--quiet` — suppress per-run progress lines;
//! * `--no-monitor` — disable the shadow-memory coherence monitor
//!   (large calibration sweeps; drops its per-access checking cost).
//!
//! A malformed command line is a [`CliError`] naming the flag and the bad
//! value; the binaries print it with the usage line and exit with code 2.
//!
//! ## Parallel sweeps are deterministic
//!
//! Every simulation runs on one thread. Every grid point of a figure is
//! an independent simulation, so [`Cli::run_grids`] runs each distinct
//! one once across a scoped worker pool — but it aggregates results,
//! prints progress and reports failures **in submission order**. Figure
//! CSVs and stdout tables are byte-identical for any worker count (see
//! DESIGN.md §7 for why this holds).

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use lacc_model::config::{ClassifierConfig, MechanismKind, TrackingKind};
use lacc_model::{SystemConfig, MAX_CORES};
use lacc_sim::{SimOptions, SimReport, Simulator};
use lacc_workloads::Benchmark;

pub mod figures;

/// The flags of the figure and table binaries, for the usage line.
const FLAGS: &str = "[--scale F] [--cores N] [--bench NAME]... [--jobs N] [--quiet] [--no-monitor]";

/// A malformed command line, naming the offending flag and value.
///
/// # Examples
///
/// ```
/// use lacc_experiments::{Cli, CliError};
///
/// let err = Cli::parse_from(["--jobs"]).unwrap_err();
/// assert_eq!(err, CliError::MissingValue { flag: "--jobs".into() });
/// assert_eq!(err.to_string(), "--jobs needs a value");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// A flag the tool does not accept.
    UnknownFlag(String),
    /// A flag that takes a value came last, with no value after it.
    MissingValue {
        /// The flag.
        flag: String,
    },
    /// A flag's value did not parse.
    BadValue {
        /// The flag.
        flag: String,
        /// The value as given.
        value: String,
        /// What the flag accepts.
        expected: &'static str,
    },
    /// A required argument is absent or a positional one is repeated.
    Usage(&'static str),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag '{flag}'"),
            CliError::MissingValue { flag } => write!(f, "{flag} needs a value"),
            CliError::BadValue { flag, value, expected } => {
                write!(f, "{flag} takes {expected}, got '{value}'")
            }
            CliError::Usage(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CliError {}

/// Takes the value following `flag` from `args` and parses it.
///
/// # Errors
///
/// [`CliError::MissingValue`] when `args` is exhausted, and
/// [`CliError::BadValue`] (quoting `expected`) when the value does not
/// parse as `T`.
pub fn flag_value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    expected: &'static str,
) -> Result<T, CliError> {
    let value = args.next().ok_or_else(|| CliError::MissingValue { flag: flag.into() })?;
    value.parse().map_err(|_| CliError::BadValue { flag: flag.into(), value, expected })
}

/// Takes the benchmark name following `flag` from `args`.
///
/// # Errors
///
/// As [`flag_value`], plus [`CliError::BadValue`] for a name that is not
/// a Table-2 benchmark.
pub fn flag_benchmark(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<Benchmark, CliError> {
    let name: String = flag_value(args, flag, "a benchmark name")?;
    Benchmark::by_name(&name).ok_or(CliError::BadValue {
        flag: flag.into(),
        value: name,
        expected: "a Table-2 benchmark name",
    })
}

/// As [`flag_value`], then [`CliError::BadValue`] quoting `valid` when
/// the parsed value fails `ok`.
fn flag_checked<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    expected: &'static str,
    valid: &'static str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, CliError> {
    let value: String = flag_value(args, flag, expected)?;
    match value.parse() {
        Ok(parsed) if ok(&parsed) => Ok(parsed),
        Ok(_) => Err(CliError::BadValue { flag: flag.into(), value, expected: valid }),
        Err(_) => Err(CliError::BadValue { flag: flag.into(), value, expected }),
    }
}

/// Takes the core count following `flag` from `args`.
///
/// # Errors
///
/// As [`flag_value`], plus [`CliError::BadValue`] for a count outside
/// `1..=`[`MAX_CORES`].
pub fn flag_cores(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, CliError> {
    // MAX_CORES spelled out, since the message is a static string.
    let valid = "an integer from 1 to 1024";
    flag_checked(args, flag, "an integer", valid, |n| (1..=MAX_CORES).contains(n))
}

/// Takes the workload scale factor following `flag` from `args`.
///
/// # Errors
///
/// As [`flag_value`], plus [`CliError::BadValue`] for a value that is not
/// finite and greater than 0.
pub fn flag_scale(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<f64, CliError> {
    let valid = "a finite number greater than 0";
    flag_checked(args, flag, "a number", valid, |s: &f64| s.is_finite() && *s > 0.0)
}

/// Unwraps a parsed command line, or prints the error and `usage` to
/// stderr and exits with status 2.
pub fn or_exit<T>(parsed: Result<T, CliError>, usage: &str) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{usage}");
        std::process::exit(2);
    })
}

/// Parsed command-line options shared by all experiment binaries.
///
/// # Examples
///
/// ```
/// use lacc_experiments::Cli;
///
/// let cli = Cli::default();
/// assert_eq!((cli.scale, cli.cores, cli.jobs), (1.0, 64, 0)); // 0 = auto
/// assert!(!cli.no_monitor);
/// assert_eq!(cli.benchmarks().len(), 21); // the full Table-2 suite
/// ```
#[derive(Clone, Debug)]
pub struct Cli {
    /// Workload scale factor.
    pub scale: f64,
    /// Number of cores (Table 1: 64).
    pub cores: usize,
    /// Benchmark filter (empty = all 21).
    pub benches: Vec<Benchmark>,
    /// Worker threads for [`Cli::run_grids`]: `0` = one per available
    /// hardware thread, `1` = serial on the calling thread.
    pub jobs: usize,
    /// Suppress progress output.
    pub quiet: bool,
    /// Disable the coherence monitor (calibration sweeps).
    pub no_monitor: bool,
}

impl Default for Cli {
    fn default() -> Self {
        Cli { scale: 1.0, cores: 64, benches: Vec::new(), jobs: 0, quiet: false, no_monitor: false }
    }
}

impl Cli {
    /// Parses `std::env::args`; on a malformed command line, prints the
    /// error and the usage line to stderr and exits with status 2.
    #[must_use]
    pub fn parse() -> Self {
        let mut args = std::env::args();
        let prog = args.next().unwrap_or_default();
        let prog = std::path::Path::new(&prog).file_name().unwrap_or_default().to_string_lossy();
        or_exit(Self::parse_from(args), &format!("usage: {prog} {FLAGS}"))
    }

    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// A [`CliError`] naming the first unknown flag, missing value, or
    /// value that does not parse.
    ///
    /// # Examples
    ///
    /// ```
    /// use lacc_experiments::Cli;
    ///
    /// let cli = Cli::parse_from(["--scale", "0.5", "--jobs", "2", "--quiet"]).unwrap();
    /// assert_eq!((cli.scale, cli.jobs, cli.quiet), (0.5, 2, true));
    /// ```
    pub fn parse_from<I>(args: I) -> Result<Self, CliError>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut cli = Cli::default();
        let mut args = args.into_iter().map(Into::into);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => cli.scale = flag_scale(&mut args, "--scale")?,
                "--cores" => cli.cores = flag_cores(&mut args, "--cores")?,
                "--bench" => {
                    let bench = flag_benchmark(&mut args, "--bench")?;
                    // A repeated name would be one sweep job twice.
                    if !cli.benches.contains(&bench) {
                        cli.benches.push(bench);
                    }
                }
                "--jobs" => cli.jobs = flag_value(&mut args, "--jobs", "an integer (0 = auto)")?,
                "--quiet" => cli.quiet = true,
                "--no-monitor" => cli.no_monitor = true,
                _ => return Err(CliError::UnknownFlag(arg)),
            }
        }
        Ok(cli)
    }

    /// The benchmarks to run.
    #[must_use]
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        if self.benches.is_empty() {
            Benchmark::ALL.to_vec()
        } else {
            self.benches.clone()
        }
    }

    /// The machine configuration (Table 1 scaled to `cores`).
    #[must_use]
    pub fn base_config(&self) -> SystemConfig {
        config_for_cores(self.cores)
    }

    /// Runs one grid of `(label, benchmark, config)` jobs: [`Cli::run_grids`]
    /// with a single grid, the sweep call of a figure binary run alone.
    ///
    /// # Examples
    ///
    /// ```
    /// use lacc_experiments::Cli;
    /// use lacc_model::SystemConfig;
    /// use lacc_workloads::Benchmark;
    ///
    /// let cli = Cli { jobs: 2, scale: 0.02, quiet: true, ..Cli::default() };
    /// let cfg = SystemConfig::small_for_tests(2);
    /// let jobs = vec![
    ///     ("pct1".to_string(), Benchmark::WaterSp, cfg.clone().with_pct(1)),
    ///     ("pct4".to_string(), Benchmark::WaterSp, cfg.with_pct(4)),
    /// ];
    /// let results = cli.run_jobs(jobs);
    /// assert_eq!(results.len(), 2);
    /// // Iteration follows submission order, not completion order.
    /// let labels: Vec<&str> = results.iter().map(|((l, _), _)| l.as_str()).collect();
    /// assert_eq!(labels, ["pct1", "pct4"]);
    /// assert!(results[&("pct1".to_string(), "water-sp")].completion_time > 0);
    /// ```
    ///
    /// # Panics
    ///
    /// As [`Cli::run_grids`].
    #[must_use]
    pub fn run_jobs(&self, jobs: Vec<Job>) -> SweepResults {
        self.run_grids(vec![jobs]).pop().expect("one result per grid")
    }

    /// Runs grids of `(label, benchmark, config)` jobs with this
    /// invocation's scale, verbosity, monitor setting and `--jobs` worker
    /// count, and returns one [`SweepResults`] per grid, under that grid's
    /// own labels — the one sweep path of the harness.
    ///
    /// Each distinct `(benchmark, config)` pair is simulated once, however
    /// many grids or labels name it. Each simulation builds, owns and runs
    /// its own [`Simulator`]; workers share only the read-only job list
    /// (the `Send` assertions in `lacc-sim` enforce this). With more than
    /// one worker, simulations are dispatched largest-first by
    /// [`Benchmark::cost_hint`] (the LPT schedule), so a late giant cannot
    /// straggle after the other workers drain. Dispatch order affects
    /// wall-clock only: progress lines (unless `quiet`, naming each
    /// simulation by the first label that asked for it), failures and the
    /// returned [`SweepResults`] all follow submission order, so output
    /// bytes are the same for any worker count.
    ///
    /// # Panics
    ///
    /// Panics if two jobs of one grid share a `(label, benchmark)` key, or
    /// — after every remaining simulation has finished — if any panicked,
    /// with a message naming each failed one. A panicking simulation never
    /// deadlocks the pool or poisons the others' results.
    #[must_use]
    pub fn run_grids(&self, grids: Vec<Vec<Job>>) -> Vec<SweepResults> {
        let (runs, index) = distinct_runs(&grids);
        let reports = self.run_pool(&runs);
        let view = |(grid, index): (Vec<Job>, Vec<usize>)| {
            let mut order = Vec::with_capacity(grid.len());
            let mut map = HashMap::with_capacity(grid.len());
            for ((label, bench, _), i) in grid.into_iter().zip(index) {
                let key = (label, bench.name());
                map.insert(key.clone(), reports[i].clone()); // keys pre-checked unique
                order.push(key);
            }
            SweepResults { order, map }
        };
        grids.into_iter().zip(index).map(view).collect()
    }

    /// Simulates every job of `jobs` and returns the reports in
    /// submission order (see [`Cli::run_grids`]).
    fn run_pool(&self, jobs: &[Job]) -> Vec<SimReport> {
        let (scale, quiet) = (self.scale, self.quiet);
        let opts = SimOptions { monitor: !self.no_monitor };
        let n = jobs.len();
        let workers = if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.jobs
        }
        .min(n);

        // One slot per job, filled exactly once; submission order is the slot
        // order, whatever order the workers finish in.
        let mut slots: Vec<Option<Result<SimReport, String>>> = Vec::new();
        slots.resize_with(n, || None);

        if workers <= 1 {
            // Serial path (`--jobs 1`): run on the calling thread, no pool.
            // Dispatch order is moot with a single worker — the makespan is
            // the sum either way — so jobs run in submission order.
            for (slot, (label, bench, cfg)) in slots.iter_mut().zip(jobs) {
                let res = run_caught(*bench, cfg, scale, opts);
                progress(quiet, label, &res);
                *slot = Some(res);
            }
        } else {
            let dispatch = dispatch_order(jobs);
            let next = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel::<(usize, Result<SimReport, String>)>();
            std::thread::scope(|s| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    let next = &next;
                    let dispatch = &dispatch;
                    s.spawn(move || loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            break;
                        }
                        let i = dispatch[k];
                        let (_, bench, cfg) = &jobs[i];
                        let res = run_caught(*bench, cfg, scale, opts);
                        if tx.send((i, res)).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                // Aggregate on this thread: buffer out-of-order arrivals and
                // emit progress for the contiguous completed prefix.
                let mut reported = 0;
                for _ in 0..n {
                    let (i, res) = rx.recv().expect("a worker died without reporting its job");
                    slots[i] = Some(res);
                    while reported < n {
                        match &slots[reported] {
                            Some(res) => progress(quiet, &jobs[reported].0, res),
                            None => break,
                        }
                        reported += 1;
                    }
                }
            });
        }

        let mut reports = Vec::with_capacity(n);
        let mut failures = Vec::new();
        for (slot, (label, bench, _)) in slots.into_iter().zip(jobs) {
            match slot.expect("every job has a result once the pool drains") {
                Ok(report) => reports.push(report),
                Err(msg) => failures.push(format!("[{label}] {}: {msg}", bench.name())),
            }
        }
        assert!(
            failures.is_empty(),
            "{} sweep job(s) panicked:\n  {}",
            failures.len(),
            failures.join("\n  ")
        );
        reports
    }
}

/// One sweep job: a label (the figure's grid point), a benchmark, and the
/// machine to simulate it on.
pub type Job = (String, Benchmark, SystemConfig);

/// The distinct `(benchmark, config)` simulations of `grids`, each under
/// the first label that names it, and for each grid the index of each of
/// its jobs' simulation.
///
/// # Panics
///
/// If two jobs of one grid share a `(label, benchmark)` key: a duplicate
/// would silently shadow a result, and a full-scale sweep is far too
/// expensive to run just to find out at aggregation time.
fn distinct_runs(grids: &[Vec<Job>]) -> (Vec<Job>, Vec<Vec<usize>>) {
    let mut runs: Vec<Job> = Vec::new();
    let mut index = Vec::with_capacity(grids.len());
    for grid in grids {
        let mut seen = HashSet::with_capacity(grid.len());
        let mut grid_index = Vec::with_capacity(grid.len());
        for job @ (label, bench, cfg) in grid {
            assert!(
                seen.insert((label.as_str(), bench.name())),
                "duplicate sweep job ({label:?}, {:?}): labels must disambiguate grid points",
                bench.name()
            );
            // `SystemConfig` holds an `f64`, so runs are matched by `==`.
            let run = runs.iter().position(|(_, b, c)| b == bench && c == cfg);
            grid_index.push(run.unwrap_or_else(|| {
                runs.push(job.clone());
                runs.len() - 1
            }));
        }
        index.push(grid_index);
    }
    (runs, index)
}

/// The Table-1 machine scaled to `cores`: memory controllers, instruction
/// clusters and limited-directory k are clamped so the configuration stays
/// valid at any machine size. Shared by the figure binaries (via
/// [`Cli::base_config`]) and the trace dump/replay tools.
///
/// # Examples
///
/// ```
/// use lacc_experiments::config_for_cores;
///
/// let cfg = config_for_cores(16);
/// assert_eq!(cfg.num_cores, 16);
/// assert!(cfg.num_mem_ctrls <= 16);
/// cfg.validate().expect("scaled Table-1 machines are always valid");
/// ```
#[must_use]
pub fn config_for_cores(cores: usize) -> SystemConfig {
    if cores == 64 {
        SystemConfig::isca13_64core()
    } else {
        let mut cfg = SystemConfig::isca13_64core();
        cfg.num_cores = cores;
        cfg.num_mem_ctrls = cfg.num_mem_ctrls.min(cores);
        if cores % cfg.rnuca_cluster != 0 {
            cfg.rnuca_cluster = 1;
        }
        if let TrackingKind::Limited { k } = cfg.classifier.tracking {
            cfg.classifier.tracking = TrackingKind::Limited { k: k.min(cores) };
        }
        cfg
    }
}

/// Results of one sweep, keyed by `(label, benchmark name)` and ordered
/// by submission.
///
/// Produced by [`Cli::run_grids`]. Lookups are O(1) via [`SweepResults::get`]
/// or indexing; [`SweepResults::iter`] walks the reports in the exact
/// order the jobs were submitted, never the order worker threads finished
/// in — which is what keeps every figure CSV and stdout table
/// byte-identical for any worker count.
pub struct SweepResults {
    order: Vec<(String, &'static str)>,
    map: HashMap<(String, &'static str), SimReport>,
}

impl SweepResults {
    /// Number of completed jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the sweep had no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The report for `(label, benchmark name)`, if that job was run.
    #[must_use]
    pub fn get(&self, key: &(String, &'static str)) -> Option<&SimReport> {
        self.map.get(key)
    }

    /// Whether a job with this key was run.
    #[must_use]
    pub fn contains_key(&self, key: &(String, &'static str)) -> bool {
        self.map.contains_key(key)
    }

    /// Keys and reports in submission order.
    pub fn iter(&self) -> impl Iterator<Item = (&(String, &'static str), &SimReport)> {
        self.order.iter().map(|k| (k, &self.map[k]))
    }
}

impl std::fmt::Debug for SweepResults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepResults").field("jobs", &self.order).finish()
    }
}

impl std::ops::Index<&(String, &'static str)> for SweepResults {
    type Output = SimReport;

    fn index(&self, key: &(String, &'static str)) -> &SimReport {
        self.map.get(key).unwrap_or_else(|| panic!("no sweep result for {key:?}"))
    }
}

/// The order workers pull jobs in: indices sorted by descending
/// [`Benchmark::cost_hint`], submission order breaking ties. Dispatch
/// order affects wall-clock only — results are aggregated by submission
/// index regardless.
fn dispatch_order(jobs: &[Job]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    // sort_by_key is stable: equal costs keep submission order.
    order.sort_by_key(|&i| std::cmp::Reverse(jobs[i].1.cost_hint()));
    order
}

/// Runs one job, converting a panic — an invalid configuration or a
/// coherence violation — into an `Err` carrying its message so the pool
/// can finish the sweep and report the failure by label.
fn run_caught(
    bench: Benchmark,
    cfg: &SystemConfig,
    scale: f64,
    opts: SimOptions,
) -> Result<SimReport, String> {
    let run = || {
        let w = bench.build(cfg.num_cores, scale);
        let sim =
            Simulator::with_options(cfg.clone(), w, opts).expect("valid experiment configuration");
        let report = sim.run();
        assert_eq!(report.monitor.violations, 0, "{}: coherence violated", bench.name());
        report
    };
    catch_unwind(AssertUnwindSafe(run)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// Emits the progress line for one completed job. Only ever called from
/// the aggregating thread, for the contiguous completed prefix of the
/// submission order — that single-threaded choke point is what makes
/// the stream tear-free and deterministic under any worker count.
fn progress(quiet: bool, label: &str, res: &Result<SimReport, String>) {
    if !quiet {
        if let Ok(report) = res {
            eprintln!("  [{label:>12}] {}", report.summary());
        }
    }
}

/// Geometric mean of positive values (1.0 for an empty slice).
#[must_use]
pub(crate) fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean (the paper plots the *Average* in Figures 8–9).
#[must_use]
pub(crate) fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// A figure's CSV file under `./results/`, opened by [`open_results_file`].
pub(crate) struct ResultsFile {
    path: String,
    file: std::fs::File,
}

/// Prints `error: cannot write <path>: <err>` and exits with status 1.
fn exit_unwritable(path: &str, err: &std::io::Error) -> ! {
    eprintln!("error: cannot write {path}: {err}");
    std::process::exit(1);
}

/// Ensures `./results` exists, opens `results/<name>` for writing and
/// writes the comma-separated `header` row; on an I/O error, prints it
/// naming the file and exits with status 1.
#[must_use]
pub(crate) fn open_results_file(name: &str, header: &str) -> ResultsFile {
    let path = format!("results/{name}");
    let mut csv =
        match std::fs::create_dir_all("results").and_then(|()| std::fs::File::create(&path)) {
            Ok(file) => ResultsFile { path, file },
            Err(e) => exit_unwritable(&path, &e),
        };
    csv_row(&mut csv, &cells(header));
    csv
}

/// The cells of a comma-separated row such as a table or CSV header.
#[must_use]
pub(crate) fn cells(row: &str) -> Vec<String> {
    row.split(',').map(String::from).collect()
}

/// Writes one CSV row; on an I/O error, prints it naming the file and
/// exits with status 1.
pub(crate) fn csv_row(f: &mut ResultsFile, cells: &[String]) {
    if let Err(e) = writeln!(f.file, "{}", cells.join(",")) {
        exit_unwritable(&f.path, &e);
    }
}

/// A fixed-width table printer for paper-style output.
pub(crate) struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Creates a printer with the given column widths.
    #[must_use]
    pub fn new(widths: &[usize]) -> Self {
        Table { widths: widths.to_vec() }
    }

    /// Prints one row, left-aligning the first column and right-aligning
    /// the rest.
    pub fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            let w = self.widths.get(i).copied().unwrap_or(10);
            if i == 0 {
                line.push_str(&format!("{cell:<w$}"));
            } else {
                line.push_str(&format!("{cell:>w$}"));
            }
            line.push(' ');
        }
        println!("{}", line.trim_end());
    }

    /// Prints a comma-separated header row and a separator under it.
    pub fn header(&self, row: &str) {
        self.row(&cells(row));
        self.sep();
    }

    /// Prints a separator sized to the table.
    pub fn sep(&self) {
        let total: usize = self.widths.iter().sum::<usize>() + self.widths.len();
        println!("{}", "-".repeat(total));
    }
}

/// The PCT values of Figures 8 and 9.
pub(crate) const FIG89_PCTS: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
/// The PCT values of Figure 10.
pub(crate) const FIG10_PCTS: [u32; 6] = [1, 2, 3, 4, 6, 8];
/// The PCT values of Figure 11.
pub(crate) const FIG11_PCTS: [u32; 14] = [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 20];

/// Classifier variants of Figure 12, with the paper's labels.
///
/// # Examples
///
/// ```
/// let labels: Vec<&str> =
///     lacc_experiments::fig12_variants().iter().map(|(l, _)| *l).collect();
/// assert_eq!(labels[0], "Timestamp"); // the normalization baseline
/// assert_eq!(labels.len(), 7);
/// ```
#[must_use]
pub fn fig12_variants() -> Vec<(&'static str, ClassifierConfig)> {
    let base =
        ClassifierConfig { tracking: TrackingKind::Complete, ..ClassifierConfig::isca13_default() };
    let rat = |levels, rat_max| ClassifierConfig {
        mechanism: MechanismKind::RatLevels { levels, rat_max },
        ..base
    };
    vec![
        ("Timestamp", ClassifierConfig { mechanism: MechanismKind::Timestamp, ..base }),
        ("L-1", rat(1, 16)),
        ("L-2,T-8", rat(2, 8)),
        ("L-2,T-16", rat(2, 16)),
        ("L-4,T-8", rat(4, 8)),
        ("L-4,T-16", rat(4, 16)),
        ("L-8,T-16", rat(8, 16)),
    ]
}

/// The k values of Figure 13 (`usize::MAX` denotes the Complete
/// classifier, labeled `Limited-64` in the paper).
///
/// # Examples
///
/// ```
/// let v = lacc_experiments::fig13_variants(64);
/// assert_eq!(v.len(), 5);
/// assert_eq!(v.last().unwrap().0, "Complete"); // the baseline variant
/// ```
#[must_use]
pub fn fig13_variants(num_cores: usize) -> Vec<(String, ClassifierConfig)> {
    let mut v: Vec<(String, ClassifierConfig)> = [1usize, 3, 5, 7]
        .iter()
        .map(|&k| {
            (
                format!("Limited-{k}"),
                ClassifierConfig {
                    tracking: TrackingKind::Limited { k: k.min(num_cores) },
                    ..ClassifierConfig::isca13_default()
                },
            )
        })
        .collect();
    v.push((
        "Complete".to_string(),
        ClassifierConfig { tracking: TrackingKind::Complete, ..ClassifierConfig::isca13_default() },
    ));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identity_is_one() {
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn mean_is_arithmetic() {
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fig12_has_paper_labels() {
        let labels: Vec<&str> = fig12_variants().iter().map(|(l, _)| *l).collect();
        assert_eq!(
            labels,
            vec!["Timestamp", "L-1", "L-2,T-8", "L-2,T-16", "L-4,T-8", "L-4,T-16", "L-8,T-16"]
        );
    }

    #[test]
    fn fig13_ends_with_complete() {
        let v = fig13_variants(64);
        assert_eq!(v.len(), 5);
        assert_eq!(v.last().unwrap().0, "Complete");
    }

    #[test]
    fn config_for_cores_is_always_valid() {
        for cores in [1, 2, 4, 6, 8, 16, 64, 100] {
            let cfg = config_for_cores(cores);
            assert_eq!(cfg.num_cores, cores);
            cfg.validate().unwrap_or_else(|e| panic!("{cores} cores: {e}"));
        }
    }

    /// A quiet command line with `workers` sweep workers at scale 0.02.
    fn sweep_cli(workers: usize) -> Cli {
        Cli { jobs: workers, scale: 0.02, quiet: true, ..Cli::default() }
    }

    #[test]
    fn dispatch_order_is_largest_first_stable() {
        assert_eq!(dispatch_order(&[]), Vec::<usize>::new());
        let cfg = SystemConfig::small_for_tests(4);
        let benches = [
            Benchmark::WaterSp,
            Benchmark::Radix,
            Benchmark::WaterSp,
            Benchmark::Susan,
            Benchmark::Concomp,
        ];
        let jobs: Vec<_> =
            benches.iter().enumerate().map(|(i, &b)| (i.to_string(), b, cfg.clone())).collect();
        // Cost hints: susan > water-sp > radix > concomp; the two water-sp
        // jobs keep their submission order.
        assert_eq!(dispatch_order(&jobs), vec![3, 0, 2, 1, 4]);
    }

    #[test]
    fn small_jobs_run_in_parallel() {
        let cfg = SystemConfig::small_for_tests(4);
        let jobs = vec![
            ("a".to_string(), Benchmark::WaterSp, cfg.clone()),
            ("b".to_string(), Benchmark::WaterSp, cfg.with_pct(1)),
        ];
        let out = sweep_cli(2).run_jobs(jobs);
        assert_eq!(out.len(), 2);
        assert!(out.contains_key(&("a".to_string(), "water-sp")));
        let order: Vec<&str> = out.iter().map(|((l, _), _)| l.as_str()).collect();
        assert_eq!(order, ["a", "b"], "iteration follows submission order");
    }

    #[test]
    #[should_panic(expected = "duplicate sweep job")]
    fn duplicate_job_keys_are_rejected() {
        let cfg = SystemConfig::small_for_tests(4);
        let jobs = vec![
            ("a".to_string(), Benchmark::WaterSp, cfg.clone()),
            ("a".to_string(), Benchmark::WaterSp, cfg),
        ];
        let _ = sweep_cli(1).run_jobs(jobs);
    }

    #[test]
    fn all_figures_simulates_each_distinct_run_once() {
        for (cores, distinct) in [(8, 597), (64, 587)] {
            let cli = Cli { cores, ..Cli::default() };
            let grids: Vec<_> = figures::FIGURES.iter().map(|f| (f.jobs)(&cli)).collect();
            let (runs, index) = distinct_runs(&grids);
            assert_eq!(index.iter().map(Vec::len).sum::<usize>(), 1206, "{cores} cores");
            assert_eq!(runs.len(), distinct, "{cores} cores");
        }
    }

    #[test]
    fn grids_sharing_a_run_each_see_it_under_their_own_label() {
        let cfg = SystemConfig::small_for_tests(4);
        let grids = vec![
            vec![
                ("a".to_string(), Benchmark::WaterSp, cfg.clone()),
                ("b".to_string(), Benchmark::WaterSp, cfg.clone().with_pct(1)),
            ],
            vec![("c".to_string(), Benchmark::WaterSp, cfg.clone())],
        ];
        assert_eq!(distinct_runs(&grids).0.len(), 2);
        let out = sweep_cli(2).run_grids(grids);
        assert_eq!(out.iter().map(SweepResults::len).collect::<Vec<_>>(), [2, 1]);
        let (a, c) =
            (&out[0][&("a".to_string(), "water-sp")], &out[1][&("c".to_string(), "water-sp")]);
        assert_eq!(a.summary(), c.summary());
        assert!(!out[1].contains_key(&("a".to_string(), "water-sp")));

        // A duplicate label within one grid is still rejected before any run.
        let dup = vec![("a".to_string(), Benchmark::WaterSp, cfg); 2];
        let err = catch_unwind(|| sweep_cli(1).run_grids(vec![vec![], dup])).unwrap_err();
        assert!(err.downcast_ref::<String>().unwrap().contains("duplicate sweep job"));
    }

    #[test]
    fn cli_errors_name_the_flag_and_value() {
        assert_eq!(
            Cli::parse_from(["--scale", "0.1", "--jobs"]).unwrap_err(),
            CliError::MissingValue { flag: "--jobs".into() }
        );
        let bad = Cli::parse_from(["--scale", "abc"]).unwrap_err();
        assert_eq!(
            bad,
            CliError::BadValue {
                flag: "--scale".into(),
                value: "abc".into(),
                expected: "a number"
            }
        );
        assert_eq!(bad.to_string(), "--scale takes a number, got 'abc'");
        let removed = Cli::parse_from(["--shards", "2"]).unwrap_err();
        assert_eq!(removed, CliError::UnknownFlag("--shards".into()));
        assert_eq!(removed.to_string(), "unknown flag '--shards'");
        assert!(matches!(
            Cli::parse_from(["--bench", "nope"]),
            Err(CliError::BadValue { ref value, .. }) if value == "nope"
        ));
        let too_many = (MAX_CORES + 1).to_string();
        for (flag, value) in [
            ("--cores", "0"),
            ("--cores", too_many.as_str()),
            ("--scale", "-1"),
            ("--scale", "0"),
            ("--scale", "nan"),
            ("--scale", "inf"),
        ] {
            let e = Cli::parse_from([flag, value]).unwrap_err();
            assert!(
                matches!(&e, CliError::BadValue { flag: f, value: v, .. } if f == flag && v == value),
                "{flag} {value}: {e:?}"
            );
        }
        assert_eq!(
            Cli::parse_from(["--cores", &too_many]).unwrap_err().to_string(),
            format!("--cores takes an integer from 1 to {MAX_CORES}, got '{too_many}'")
        );
        let edge = Cli::parse_from(["--cores", "1", "--scale", "1e-9"]).unwrap();
        assert_eq!((edge.cores, edge.scale), (1, 1e-9));
        assert_eq!(Cli::parse_from(["--cores", &MAX_CORES.to_string()]).unwrap().cores, MAX_CORES);
    }

    #[test]
    fn cli_parses_every_flag() {
        let cli = Cli::parse_from([
            "--scale",
            "0.25",
            "--cores",
            "16",
            "--bench",
            "water-sp",
            "--bench",
            "radix",
            "--jobs",
            "3",
            "--quiet",
            "--no-monitor",
        ])
        .unwrap();
        assert_eq!((cli.scale, cli.cores, cli.jobs), (0.25, 16, 3));
        assert_eq!(cli.benches, [Benchmark::WaterSp, Benchmark::Radix]);
        assert!(cli.quiet && cli.no_monitor);
    }

    #[test]
    fn a_repeated_bench_counts_once() {
        let cli =
            Cli::parse_from(["--bench", "water-sp", "--bench", "radix", "--bench", "water-sp"])
                .unwrap();
        assert_eq!(cli.benches, [Benchmark::WaterSp, Benchmark::Radix]);
    }

    #[test]
    fn no_monitor_runs_check_nothing() {
        let cli = Cli { scale: 0.02, cores: 4, quiet: true, no_monitor: true, ..Cli::default() };
        let cfg = SystemConfig::small_for_tests(4);
        let results = cli.run_jobs(vec![("off".to_string(), Benchmark::WaterSp, cfg)]);
        let r = &results[&("off".to_string(), "water-sp")];
        assert_eq!(r.monitor.reads_checked, 0, "monitor must be off");
        assert!(r.completion_time > 0);
    }
}
