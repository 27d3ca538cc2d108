//! Figure 10 (§5.1): L1-D cache miss rate and miss-type breakdown (cold,
//! capacity, upgrade, sharing, word) as PCT sweeps {1, 2, 3, 4, 6, 8}.
//!
//! Paper anchors: water-sp/susan sit near 0.2%; concomp reaches ~50%+;
//! blackscholes/bodytrack/dijkstra-ap/matmul *drop* in miss rate from
//! PCT 1 to 2 (better cache utilization); capacity and sharing misses
//! convert into word misses as PCT rises.

use lacc_model::MissClass;

use super::{pct_grid, Figure};
use crate::{csv_row, open_results_file, Cli, Job, SweepResults, Table, FIG10_PCTS};

pub const FIGURE: Figure = Figure { name: "fig10_missrates", jobs, render };

fn jobs(cli: &Cli) -> Vec<Job> {
    pct_grid(cli, &FIG10_PCTS)
}

fn render(cli: &Cli, results: &SweepResults) {
    let mut csv = open_results_file(
        "fig10_missrates.csv",
        "benchmark,pct,miss_rate_pct,cold,capacity,upgrade,sharing,word",
    );

    println!("\nFigure 10: L1-D miss rate (%) and miss-type breakdown vs PCT");
    let t = Table::new(&[14, 4, 9, 9, 9, 9, 9, 9]);
    t.header("benchmark,PCT,miss%,Cold,Capacity,Upgrade,Sharing,Word");
    for b in cli.benchmarks() {
        for &pct in &FIG10_PCTS {
            let r = &results[&(format!("pct{pct}"), b.name())];
            let total = r.l1d.total_accesses().max(1) as f64;
            let (name, miss_rate) = (b.name().to_string(), r.l1d_miss_rate_pct());
            let mut row = vec![name.clone(), pct.to_string(), format!("{miss_rate:.2}")];
            row.extend(
                MissClass::ALL.map(|c| format!("{:.2}", 100.0 * r.l1d.of(c) as f64 / total)),
            );
            t.row(&row);
            let mut cells = vec![name, pct.to_string(), format!("{miss_rate:.4}")];
            cells.extend(MissClass::ALL.map(|c| r.l1d.of(c).to_string()));
            csv_row(&mut csv, &cells);
        }
        t.sep();
    }
}
