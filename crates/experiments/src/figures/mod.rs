//! The paper's tables and figures, each one a [`Figure`] value: the
//! simulations it needs and how it prints and saves their results.
//!
//! Every figure binary's `main` is one call to [`Figure::main`];
//! `all_figures` hands the jobs of all [`FIGURES`] to one
//! [`Cli::run_grids`] call, so a simulation that several figures need
//! runs once, and then renders each figure in turn.

use lacc_model::SystemConfig;

use crate::{csv_row, geomean, Cli, Job, ResultsFile, SweepResults, Table};

pub mod ackwise_vs_fullmap;
pub mod ext_complete_shortcut;
pub mod ext_scalability;
pub mod fig01_02_utilization;
pub mod fig08_energy;
pub mod fig09_completion;
pub mod fig10_missrates;
pub mod fig11_pct_sweep;
pub mod fig12_rat;
pub mod fig13_limitedk;
pub mod fig14_oneway;
pub mod tab01_parameters;
pub mod tab02_workloads;
pub mod tab03_storage;

/// One table or figure of the paper.
pub struct Figure {
    /// The name of its binary, which `all_figures` prints above it.
    pub name: &'static str,
    /// The `(label, benchmark, config)` simulations it needs.
    pub jobs: fn(&Cli) -> Vec<Job>,
    /// Prints its tables to stdout and writes its CSV (if any) under
    /// `./results/`, from the results of `jobs`.
    pub render: fn(&Cli, &SweepResults),
}

impl Figure {
    /// The `main` of the figure's own binary: parses the command line,
    /// runs the figure's jobs and renders them.
    pub fn main(&self) {
        let cli = Cli::parse();
        (self.render)(&cli, &cli.run_jobs((self.jobs)(&cli)));
    }
}

/// Every table and figure, in the order `all_figures` prints them (the
/// §5-preamble baseline check last).
pub const FIGURES: [Figure; 14] = [
    tab01_parameters::FIGURE,
    tab02_workloads::FIGURE,
    tab03_storage::FIGURE,
    fig01_02_utilization::FIGURE,
    fig08_energy::FIGURE,
    fig09_completion::FIGURE,
    fig10_missrates::FIGURE,
    fig11_pct_sweep::FIGURE,
    fig12_rat::FIGURE,
    fig13_limitedk::FIGURE,
    fig14_oneway::FIGURE,
    ext_complete_shortcut::FIGURE,
    ext_scalability::FIGURE,
    ackwise_vs_fullmap::FIGURE,
];

/// The jobs of a table that simulates nothing.
fn no_jobs(_: &Cli) -> Vec<Job> {
    Vec::new()
}

/// Every benchmark of `cli` on each labelled configuration, one
/// configuration after another.
fn grid<L: ToString>(cli: &Cli, configs: impl IntoIterator<Item = (L, SystemConfig)>) -> Vec<Job> {
    let benches = cli.benchmarks();
    let mut jobs = Vec::new();
    for (label, cfg) in configs {
        let label = label.to_string();
        jobs.extend(benches.iter().map(|&b| (label.clone(), b, cfg.clone())));
    }
    jobs
}

/// [`grid`] over the base machine at each PCT of `pcts`, labelled
/// `pct<N>`.
fn pct_grid(cli: &Cli, pcts: &[u32]) -> Vec<Job> {
    grid(cli, pcts.iter().map(|&pct| (format!("pct{pct}"), cli.base_config().with_pct(pct))))
}

/// `label`'s completion time and energy on `bench`, each divided by
/// `base`'s.
fn ratios(results: &SweepResults, label: &str, base: &str, bench: &'static str) -> (f64, f64) {
    let r = &results[&(label.to_string(), bench)];
    let b = &results[&(base.to_string(), bench)];
    let time = r.completion_time as f64 / b.completion_time.max(1) as f64;
    (time, r.energy.total() / b.energy.total().max(1e-9))
}

/// The geomeans over `cli`'s benchmarks of [`ratios`].
fn geomean_ratios(cli: &Cli, results: &SweepResults, label: &str, base: &str) -> (f64, f64) {
    let (times, energies): (Vec<f64>, Vec<f64>) =
        cli.benchmarks().iter().map(|b| ratios(results, label, base, b.name())).unzip();
    (geomean(&times), geomean(&energies))
}

/// Prints a row of [`ratios`] per benchmark at `digits` decimals, writes
/// each to `csv`, and ends with a row of their geomeans, which it returns.
fn ratio_table(
    cli: &Cli,
    results: &SweepResults,
    (label, base): (&str, &str),
    csv: &mut ResultsFile,
    digits: usize,
) -> (f64, f64) {
    let t = Table::new(&[14, 16, 12]);
    t.header("benchmark,CompletionTime,Energy");
    for b in cli.benchmarks() {
        let (time, energy) = ratios(results, label, base, b.name());
        t.row(&[b.name().to_string(), format!("{time:.digits$}"), format!("{energy:.digits$}")]);
        csv_row(csv, &[b.name().to_string(), format!("{time:.4}"), format!("{energy:.4}")]);
    }
    t.sep();
    let (time, energy) = geomean_ratios(cli, results, label, base);
    t.row(&["geomean".to_string(), format!("{time:.digits$}"), format!("{energy:.digits$}")]);
    (time, energy)
}
