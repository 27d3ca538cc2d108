//! Convenience runner: regenerates every table and figure in sequence by
//! invoking the sibling experiment binaries with the same flags.
//!
//! All flags are forwarded verbatim — in particular `--jobs N` (sweep
//! workers), so one invocation parallelizes every sweep (`--jobs 1`
//! reproduces the serial baseline byte-for-byte; CI diffs it against
//! `--jobs 2`). Per-binary wall-clock goes to stderr to keep stdout
//! deterministic across worker counts. The flags are checked once up
//! front, so a malformed command line exits with status 2 before any
//! binary runs.

use std::process::Command;
use std::time::Instant;

use lacc_experiments::Cli;

const BINS: [&str; 13] = [
    "tab01_parameters",
    "tab02_workloads",
    "tab03_storage",
    "fig01_02_utilization",
    "fig08_energy",
    "fig09_completion",
    "fig10_missrates",
    "fig11_pct_sweep",
    "fig12_rat",
    "fig13_limitedk",
    "fig14_oneway",
    "ext_complete_shortcut",
    "ext_scalability",
];

fn main() {
    let _ = Cli::parse();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let me = std::env::current_exe().expect("current exe path");
    let dir = me.parent().expect("exe dir");
    let started = Instant::now();
    // ackwise_vs_fullmap is part of the §5 preamble; run it too.
    for bin in BINS.iter().copied().chain(std::iter::once("ackwise_vs_fullmap")) {
        println!("\n================================================================");
        println!("== {bin}");
        println!("================================================================");
        let bin_started = Instant::now();
        let status = Command::new(dir.join(bin))
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
        eprintln!("[all_figures] {bin} took {:.2}s", bin_started.elapsed().as_secs_f64());
    }
    println!("\nAll figures and tables regenerated; CSVs in ./results/");
    eprintln!("[all_figures] total wall-clock {:.2}s", started.elapsed().as_secs_f64());
}
