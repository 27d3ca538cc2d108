//! Figure 11 (§5.1.3): geometric means of completion time and energy as
//! PCT sweeps {1..8, 10..20}, normalized to PCT = 1 — the plot that
//! justifies the static choice of PCT = 4.
//!
//! Paper anchors: completion time falls to ~0.85 by PCT 3-4 then rises;
//! energy falls to ~0.75 by PCT 4-5, stays flat to ~8, then rises.

use super::{geomean_ratios, pct_grid, Figure};
use crate::{csv_row, open_results_file, Cli, Job, SweepResults, Table, FIG11_PCTS};

pub const FIGURE: Figure = Figure { name: "fig11_pct_sweep", jobs, render };

fn jobs(cli: &Cli) -> Vec<Job> {
    pct_grid(cli, &FIG11_PCTS)
}

fn render(cli: &Cli, results: &SweepResults) {
    let mut csv = open_results_file("fig11_pct_sweep.csv", "pct,geomean_completion,geomean_energy");

    println!("\nFigure 11: Geomean completion time and energy vs PCT (normalized to PCT=1)");
    let t = Table::new(&[6, 16, 12]);
    t.header("PCT,CompletionTime,Energy");
    let mut best = (1u32, 2.0f64);
    for &pct in &FIG11_PCTS {
        let (gt, ge) = geomean_ratios(cli, results, &format!("pct{pct}"), "pct1");
        if gt + ge < best.1 {
            best = (pct, gt + ge);
        }
        t.row(&[pct.to_string(), format!("{gt:.3}"), format!("{ge:.3}")]);
        csv_row(&mut csv, &[pct.to_string(), format!("{gt:.4}"), format!("{ge:.4}")]);
    }
    println!(
        "\nBest combined PCT = {} (paper selects PCT = 4: ~15% time, ~25% energy reduction)",
        best.0
    );
}
