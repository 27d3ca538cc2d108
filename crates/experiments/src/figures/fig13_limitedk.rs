//! Figure 13 (§5.3): accuracy of the Limited_k classifier — per-benchmark
//! completion time and energy for k in {1, 3, 5, 7} and the Complete
//! classifier (= Limited_64), normalized to Complete, at PCT = 4.
//!
//! Paper anchors: Limited_3 never exceeds Complete by more than ~3%;
//! streamcluster/dijkstra-ss *beat* Complete (the majority vote learns
//! remote mode faster); Limited_1 misclassifies radix (starts sharers
//! remote) and bodytrack (starts them private).

use super::{grid, ratios, Figure};
use crate::{csv_row, fig13_variants, geomean, open_results_file, Cli, Job, SweepResults, Table};

pub const FIGURE: Figure = Figure { name: "fig13_limitedk", jobs, render };

fn jobs(cli: &Cli) -> Vec<Job> {
    let configs = fig13_variants(cli.cores).into_iter();
    grid(cli, configs.map(|(label, ccfg)| (label, cli.base_config().with_classifier(ccfg))))
}

fn render(cli: &Cli, results: &SweepResults) {
    let variants = fig13_variants(cli.cores);
    let mut csv =
        open_results_file("fig13_limitedk.csv", "benchmark,variant,completion_norm,energy_norm");

    for (title, metric) in [
        ("Completion Time (normalized to Complete)", 0usize),
        ("Energy (normalized to Complete)", 1),
    ] {
        println!("\nFigure 13: {title}");
        let mut widths = vec![14usize];
        widths.extend(std::iter::repeat(11).take(variants.len()));
        let t = Table::new(&widths);
        let mut header = vec!["benchmark".to_string()];
        header.extend(variants.iter().map(|(l, _)| l.clone()));
        t.row(&header);
        t.sep();
        let mut per_variant: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
        for b in cli.benchmarks() {
            let mut row = vec![b.name().to_string()];
            for (vi, (label, _)) in variants.iter().enumerate() {
                let (time, energy) = ratios(results, label, "Complete", b.name());
                let v = if metric == 0 { time } else { energy };
                per_variant[vi].push(v);
                row.push(format!("{v:.3}"));
                if metric == 0 {
                    let name = b.name().to_string();
                    csv_row(
                        &mut csv,
                        &[name, label.clone(), format!("{v:.4}"), format!("{energy:.4}")],
                    );
                }
            }
            t.row(&row);
        }
        t.sep();
        let mut row = vec!["geomean".to_string()];
        row.extend(per_variant.iter().map(|v| format!("{:.3}", geomean(v))));
        t.row(&row);
    }
    println!(
        "\nPaper: Limited-3 stays within ~3% of Complete; Limited-1 misclassifies radix/bodytrack."
    );
}
