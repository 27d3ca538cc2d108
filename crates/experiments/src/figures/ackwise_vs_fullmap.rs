//! §5 preamble: "We have compared the baseline ACKwise4 with a full-map
//! directory protocol and the average performance and energy consumption
//! were found to be within 1% of each other."

use lacc_model::config::DirectoryKind;

use super::{grid, ratio_table, Figure};
use crate::{open_results_file, Cli, Job, SweepResults};

pub const FIGURE: Figure = Figure { name: "ackwise_vs_fullmap", jobs, render };

fn jobs(cli: &Cli) -> Vec<Job> {
    let ackwise = cli.base_config().with_pct(1);
    let fullmap = ackwise.clone().with_directory(DirectoryKind::FullMap);
    grid(cli, [("ackwise4", ackwise), ("fullmap", fullmap)])
}

fn render(cli: &Cli, results: &SweepResults) {
    let mut csv =
        open_results_file("ackwise_vs_fullmap.csv", "benchmark,completion_ratio,energy_ratio");

    println!("\nBaseline check: ACKwise4 / Full-map at PCT=1 (1.0 = identical)");
    let (gt, ge) = ratio_table(cli, results, ("ackwise4", "fullmap"), &mut csv, 3);
    println!(
        "\nGeomean deltas: completion {:.1}%, energy {:.1}% (paper: within 1%)",
        100.0 * (gt - 1.0).abs(),
        100.0 * (ge - 1.0).abs()
    );
}
