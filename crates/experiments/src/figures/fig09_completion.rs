//! Figure 9 (§5.1.2): completion-time breakdown (compute, L1→L2, L2
//! waiting, L2→sharers, L2→off-chip, synchronization) as PCT sweeps 1..8,
//! normalized to PCT = 1.
//!
//! Paper anchor: at PCT 4 the mean completion time is ~15% below PCT 1;
//! streamcluster/dijkstra-ss mostly reduce L2 waiting time; patricia/tsp
//! reduce L2→sharers; lu-nc/barnes regress past PCT 3.

use super::{fig08_energy, Figure};
use crate::{csv_row, mean, open_results_file, Cli, SweepResults, Table, FIG89_PCTS};

// Figure 8's runs: the two figures are two views of one PCT sweep.
pub const FIGURE: Figure = Figure { name: "fig09_completion", jobs: fig08_energy::jobs, render };

fn render(cli: &Cli, results: &SweepResults) {
    let mut csv = open_results_file(
        "fig09_completion.csv",
        "benchmark,pct,compute,l1_l2,l2_wait,l2_sharers,l2_offchip,sync,total_cycles,normalized",
    );

    println!("\nFigure 9: Completion-time breakdown vs PCT (normalized to PCT=1)");
    let t = Table::new(&[14, 4, 8, 8, 8, 8, 8, 8, 9]);
    t.header("benchmark,PCT,Compute,L1-L2,L2Wait,L2Shrs,OffChip,Sync,Total");

    let mut per_pct: Vec<Vec<f64>> = vec![Vec::new(); FIG89_PCTS.len()];
    for b in cli.benchmarks() {
        // The paper plots parallel completion time; the per-component stack
        // uses the summed per-core breakdown, normalized to PCT=1.
        let base = results[&("pct1".to_string(), b.name())].completion_time as f64;
        for (pi, &pct) in FIG89_PCTS.iter().enumerate() {
            let r = &results[&(format!("pct{pct}"), b.name())];
            let bd = r.breakdown;
            let stack_total = bd.total().max(1) as f64;
            let norm = r.completion_time as f64 / base.max(1.0);
            per_pct[pi].push(norm);
            let mut row = vec![b.name().to_string(), pct.to_string()];
            row.extend(
                bd.components()
                    .iter()
                    .map(|(_, v)| format!("{:.3}", norm * *v as f64 / stack_total)),
            );
            row.push(format!("{norm:.3}"));
            t.row(&row);
            let mut cells = vec![b.name().to_string(), pct.to_string()];
            cells.extend(bd.components().iter().map(|(_, v)| v.to_string()));
            cells.push(r.completion_time.to_string());
            cells.push(format!("{norm:.4}"));
            csv_row(&mut csv, &cells);
        }
        t.sep();
    }

    println!("\nAverage normalized completion time per PCT:");
    let t2 = Table::new(&[6, 10]);
    t2.row(&["PCT".to_string(), "avg".to_string()]);
    for (pi, &pct) in FIG89_PCTS.iter().enumerate() {
        t2.row(&[pct.to_string(), format!("{:.3}", mean(&per_pct[pi]))]);
    }
    let at4 = mean(&per_pct[3]);
    println!(
        "\nCompletion time at PCT=4 vs PCT=1: {:.1}% reduction (paper: ~15%)",
        100.0 * (1.0 - at4)
    );
}
