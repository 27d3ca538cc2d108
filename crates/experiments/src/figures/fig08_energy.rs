//! Figure 8 (§5.1.1): dynamic-energy breakdown (L1-I, L1-D, L2, directory,
//! router, link) as PCT sweeps 1..8, per benchmark, normalized to PCT = 1.
//!
//! Paper anchor: at PCT 4 the mean energy across benchmarks is ~25% below
//! PCT 1; links out-contribute routers at 11 nm; directory energy is
//! negligible.

use super::{pct_grid, Figure};
use crate::{csv_row, mean, open_results_file, Cli, Job, SweepResults, Table, FIG89_PCTS};

pub const FIGURE: Figure = Figure { name: "fig08_energy", jobs, render };

/// PCT 1..8 on every benchmark (Figure 9 runs the same grid).
pub(super) fn jobs(cli: &Cli) -> Vec<Job> {
    pct_grid(cli, &FIG89_PCTS)
}

fn render(cli: &Cli, results: &SweepResults) {
    let mut csv = open_results_file(
        "fig08_energy.csv",
        "benchmark,pct,l1i,l1d,l2,directory,router,link,total,normalized",
    );

    println!("\nFigure 8: Energy breakdown vs PCT (normalized to PCT=1)");
    let t = Table::new(&[14, 4, 7, 7, 7, 7, 7, 7, 9]);
    t.header("benchmark,PCT,L1-I,L1-D,L2,Dir,Router,Link,Total");

    let mut per_pct_totals: Vec<Vec<f64>> = vec![Vec::new(); FIG89_PCTS.len()];
    for b in cli.benchmarks() {
        let base = results[&("pct1".to_string(), b.name())].energy.total();
        for (pi, &pct) in FIG89_PCTS.iter().enumerate() {
            let r = &results[&(format!("pct{pct}"), b.name())];
            let e = r.energy;
            let norm = e.total() / base.max(1e-9);
            per_pct_totals[pi].push(norm);
            let mut row = vec![b.name().to_string(), pct.to_string()];
            row.extend(e.components().iter().map(|(_, v)| format!("{:.3}", v / base.max(1e-9))));
            row.push(format!("{norm:.3}"));
            t.row(&row);
            let mut cells = vec![b.name().to_string(), pct.to_string()];
            cells.extend(e.components().iter().map(|(_, v)| format!("{v:.1}")));
            cells.push(format!("{:.1}", e.total()));
            cells.push(format!("{norm:.4}"));
            csv_row(&mut csv, &cells);
        }
        t.sep();
    }

    println!("\nAverage normalized energy per PCT (the paper plots Average, not geomean):");
    let t2 = Table::new(&[6, 10]);
    t2.row(&["PCT".to_string(), "avg".to_string()]);
    for (pi, &pct) in FIG89_PCTS.iter().enumerate() {
        t2.row(&[pct.to_string(), format!("{:.3}", mean(&per_pct_totals[pi]))]);
    }
    let at4 = mean(&per_pct_totals[3]);
    println!("\nEnergy at PCT=4 vs PCT=1: {:.1}% reduction (paper: ~25%)", 100.0 * (1.0 - at4));
}
