//! Figure 12 (§5.2): sensitivity of the RAT approximation — completion
//! time and energy for {Timestamp, L-1, L-2/T-8, L-2/T-16, L-4/T-8,
//! L-4/T-16, L-8/T-16}, normalized to the Timestamp scheme, at PCT = 4.
//!
//! Paper anchors: completion time is flat across the variants; energy is
//! ~9% worse with a single RAT level; with RATmax = 16 the gap to
//! Timestamp closes and nRATlevels in {2, 4, 8} are indistinguishable, so
//! the paper picks L-2/T-16.

use super::{geomean_ratios, grid, Figure};
use crate::{csv_row, fig12_variants, open_results_file, Cli, Job, SweepResults, Table};

pub const FIGURE: Figure = Figure { name: "fig12_rat", jobs, render };

fn jobs(cli: &Cli) -> Vec<Job> {
    let configs = fig12_variants().into_iter();
    grid(cli, configs.map(|(label, ccfg)| (label, cli.base_config().with_classifier(ccfg))))
}

fn render(cli: &Cli, results: &SweepResults) {
    let mut csv = open_results_file("fig12_rat.csv", "variant,geomean_completion,geomean_energy");

    println!("\nFigure 12: RAT sensitivity at PCT=4 (normalized to Timestamp)");
    let t = Table::new(&[12, 16, 12]);
    t.header("variant,CompletionTime,Energy");
    for (label, _) in fig12_variants() {
        let (gt, ge) = geomean_ratios(cli, results, label, "Timestamp");
        t.row(&[label.to_string(), format!("{gt:.3}"), format!("{ge:.3}")]);
        csv_row(&mut csv, &[label.to_string(), format!("{gt:.4}"), format!("{ge:.4}")]);
    }
    println!("\nPaper: L-1 is ~9% worse in energy; L-2/T-16 matches Timestamp and is the default.");
}
