//! Regenerates every table and figure of the paper in one process: it
//! simulates each distinct `(benchmark, config)` that any figure of
//! `lacc_experiments::figures::FIGURES` needs once, through one sweep
//! pool, then renders the figures in order under banners naming them.
//!
//! It takes the flags of every figure binary, and its stdout is the same
//! at any `--jobs N`; the wall-clock goes to stderr. A malformed command
//! line exits with status 2 before any simulation runs, and an unwritable
//! `results/` with status 1 and an `error: cannot write …` line.

use std::time::Instant;

use lacc_experiments::figures::FIGURES;
use lacc_experiments::Cli;

fn main() {
    let cli = Cli::parse();
    let started = Instant::now();
    let results = cli.run_grids(FIGURES.iter().map(|figure| (figure.jobs)(&cli)).collect());
    for (figure, results) in FIGURES.iter().zip(&results) {
        println!("\n================================================================");
        println!("== {}", figure.name);
        println!("================================================================");
        (figure.render)(&cli, results);
    }
    println!("\nAll figures and tables regenerated; CSVs in ./results/");
    eprintln!("[all_figures] total wall-clock {:.2}s", started.elapsed().as_secs_f64());
}
