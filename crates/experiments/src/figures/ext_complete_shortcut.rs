//! Extension experiment (§5.3's closing remark): "the Complete locality
//! classifier can also be equipped with such a learning short-cut".
//!
//! Compares, at PCT = 4: the plain Complete classifier, Complete with the
//! first-touch majority-vote shortcut, and Limited_3 (whose replacement
//! policy has the shortcut built in). On one-touch-per-core sharing
//! patterns the shortcut lets fresh sharers skip the private
//! classification phase entirely — this experiment quantifies how much of
//! Limited_3's advantage over Complete (Figure 13) the shortcut recovers.

use lacc_model::config::{ClassifierConfig, TrackingKind};

use super::{grid, ratios, Figure};
use crate::{csv_row, geomean, open_results_file, Cli, Job, SweepResults, Table};

pub const FIGURE: Figure = Figure { name: "ext_complete_shortcut", jobs, render };

/// The classifier variants, plain Complete (the baseline) first.
fn variants() -> [(&'static str, ClassifierConfig); 3] {
    let complete =
        ClassifierConfig { tracking: TrackingKind::Complete, ..ClassifierConfig::isca13_default() };
    let shortcut = ClassifierConfig { shortcut: true, ..complete };
    [
        ("Complete", complete),
        ("Compl+SC", shortcut),
        ("Limited-3", ClassifierConfig::isca13_default()),
    ]
}

fn jobs(cli: &Cli) -> Vec<Job> {
    grid(cli, variants().map(|(label, ccfg)| (label, cli.base_config().with_classifier(ccfg))))
}

fn render(cli: &Cli, results: &SweepResults) {
    let variants = variants();
    let mut csv = open_results_file(
        "ext_complete_shortcut.csv",
        "benchmark,variant,completion_norm,energy_norm",
    );

    println!("\nExtension: Complete + learning shortcut (normalized to plain Complete, PCT=4)");
    let t = Table::new(&[14, 11, 11, 11, 11, 11, 11]);
    t.header("benchmark,Compl t,SC t,Lim3 t,Compl e,SC e,Lim3 e");
    let mut sc_t = Vec::new();
    let mut lim_t = Vec::new();
    for b in cli.benchmarks() {
        let mut row = vec![b.name().to_string()];
        let (times, energies): (Vec<f64>, Vec<f64>) =
            variants.iter().map(|(label, _)| ratios(results, label, "Complete", b.name())).unzip();
        sc_t.push(times[1]);
        lim_t.push(times[2]);
        row.extend(times.iter().map(|v| format!("{v:.3}")));
        row.extend(energies.iter().map(|v| format!("{v:.3}")));
        t.row(&row);
        for (vi, (label, _)) in variants.iter().enumerate() {
            let (name, time, energy) = (b.name().to_string(), times[vi], energies[vi]);
            csv_row(
                &mut csv,
                &[name, label.to_string(), format!("{time:.4}"), format!("{energy:.4}")],
            );
        }
    }
    t.sep();
    println!(
        "geomean completion: shortcut {:.3}, Limited-3 {:.3} (vs plain Complete 1.000)",
        geomean(&sc_t),
        geomean(&lim_t)
    );
    println!("\nThe shortcut should recover most of Limited-3's Figure-13 advantage.");
}
