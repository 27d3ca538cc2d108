//! Figures 1 and 2 (§2.2 motivation): breakdown of invalidated and evicted
//! cache lines by utilization bins {1, 2-3, 4-5, 6-7, >=8}, measured on the
//! baseline directory protocol (PCT = 1).
//!
//! Paper anchor: "in streamcluster, 80% of the cache lines that are
//! invalidated have utilization < 4".

use lacc_model::UtilizationHistogram;

use super::{pct_grid, Figure};
use crate::{csv_row, open_results_file, Cli, Job, SweepResults, Table};

pub const FIGURE: Figure = Figure { name: "fig01_02_utilization", jobs, render };

fn jobs(cli: &Cli) -> Vec<Job> {
    pct_grid(cli, &[1])
}

fn render(cli: &Cli, results: &SweepResults) {
    let mut csv =
        open_results_file("fig01_02_utilization.csv", "benchmark,kind,u1,u2-3,u4-5,u6-7,u8+");

    for (title, pick) in [
        ("Figure 1: Invalidations breakdown (%) vs utilization", 0usize),
        ("Figure 2: Evictions breakdown (%) vs utilization", 1usize),
    ] {
        println!("\n{title}");
        let t = Table::new(&[14, 8, 8, 8, 8, 8]);
        let mut header = vec!["benchmark".to_string()];
        header.extend(UtilizationHistogram::LABELS.iter().map(|s| (*s).to_string()));
        t.row(&header);
        t.sep();
        for b in cli.benchmarks() {
            let r = &results[&("pct1".to_string(), b.name())];
            let h = if pick == 0 { r.inval_histogram } else { r.evict_histogram };
            let f = h.fractions();
            let mut row = vec![b.name().to_string()];
            row.extend(f.iter().map(|v| format!("{:.1}", 100.0 * v)));
            t.row(&row);
            let mut cells =
                vec![b.name().to_string(), if pick == 0 { "inval" } else { "evict" }.into()];
            cells.extend(f.iter().map(|v| format!("{:.4}", v)));
            csv_row(&mut csv, &cells);
        }
    }

    // The paper's §2.2 anchor observation, when streamcluster ran.
    let sc = results.get(&("pct1".to_string(), "streamclus.")).map(|r| r.inval_histogram);
    if let Some(h) = sc.filter(|h| h.total() > 0) {
        println!(
            "\nstreamcluster: {:.0}% of invalidated lines have utilization < 4 (paper: ~80%)",
            100.0 * h.below(4)
        );
    }
}
