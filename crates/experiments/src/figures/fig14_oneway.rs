//! Figure 14 (§5.4): the cost of removing remote→private transitions —
//! per-benchmark ratio of Adapt1-way over Adapt2-way completion time and
//! energy at PCT = 4.
//!
//! Paper anchors: Adapt1-way is worse by 34% (completion) and 13% (energy)
//! on average; bodytrack reaches 3.3x and dijkstra-ss 2.3x in completion
//! time.

use lacc_model::config::ClassifierConfig;

use super::{grid, ratio_table, Figure};
use crate::{open_results_file, Cli, Job, SweepResults};

pub const FIGURE: Figure = Figure { name: "fig14_oneway", jobs, render };

fn jobs(cli: &Cli) -> Vec<Job> {
    let one_way = ClassifierConfig { one_way: true, ..ClassifierConfig::isca13_default() };
    let one_way = cli.base_config().with_classifier(one_way);
    grid(cli, [("2way", cli.base_config()), ("1way", one_way)])
}

fn render(cli: &Cli, results: &SweepResults) {
    let mut csv = open_results_file("fig14_oneway.csv", "benchmark,completion_ratio,energy_ratio");

    println!("\nFigure 14: Adapt1-way / Adapt2-way ratios at PCT=4 (higher = 1-way worse)");
    let _ = ratio_table(cli, results, ("1way", "2way"), &mut csv, 2);
    println!("\nPaper: 1-way is worse by ~34% completion / ~13% energy; bodytrack 3.3x, dijkstra-ss 2.3x.");
}
