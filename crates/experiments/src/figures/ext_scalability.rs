//! Extension experiment: protocol benefit vs core count.
//!
//! The paper's framing (§1–2) is scalability: directories struggle as core
//! counts grow, and unnecessary data movement costs more as mesh diameters
//! stretch. This experiment runs the suite's sharing-heavy benchmarks on
//! 16-, 36- and 64-core machines and reports the adaptive protocol's
//! energy/time advantage at each size — the word-conversion saving should
//! *grow* with the average hop distance.
//!
//! Also prints the §3.6 storage ladder at each core count (the Complete
//! classifier's cost explodes with core count; Limited_3's does not —
//! the scalability argument for limited locality tracking).

use lacc_core::overheads::storage_report;
use lacc_model::config::TrackingKind;
use lacc_workloads::Benchmark;

use super::{ratios, Figure};
use crate::{cells, csv_row, geomean, open_results_file, Cli, Job, SweepResults, Table};

pub const FIGURE: Figure = Figure { name: "ext_scalability", jobs, render };

const CORE_COUNTS: [usize; 3] = [16, 36, 64];
const BENCHES: [Benchmark; 5] = [
    Benchmark::Streamcluster,
    Benchmark::DijkstraSs,
    Benchmark::Concomp,
    Benchmark::Patricia,
    Benchmark::Canneal,
];

fn jobs(cli: &Cli) -> Vec<Job> {
    let mut jobs = Vec::new();
    for &cores in &CORE_COUNTS {
        let mut base = Cli { cores, ..cli.clone() }.base_config();
        base.num_mem_ctrls = base.num_mem_ctrls.min(cores / 2).max(1);
        for b in BENCHES {
            jobs.push((format!("c{cores}-pct1"), b, base.clone().with_pct(1)));
            jobs.push((format!("c{cores}-pct4"), b, base.clone().with_pct(4)));
        }
    }
    jobs
}

fn render(_: &Cli, results: &SweepResults) {
    let mut csv =
        open_results_file("ext_scalability.csv", "cores,benchmark,energy_ratio,time_ratio");

    println!("\nExtension: adaptive (PCT=4) vs baseline (PCT=1) across machine sizes");
    let t = Table::new(&[8, 14, 14, 14]);
    t.header("cores,geomean energy,geomean time,avg hops");
    for &cores in &CORE_COUNTS {
        let mut energies = Vec::new();
        let mut times = Vec::new();
        for b in BENCHES {
            let (adaptive, base) = (format!("c{cores}-pct4"), format!("c{cores}-pct1"));
            let (ti, e) = ratios(results, &adaptive, &base, b.name());
            energies.push(e);
            times.push(ti);
            csv_row(
                &mut csv,
                &[cores.to_string(), b.name().to_string(), format!("{e:.4}"), format!("{ti:.4}")],
            );
        }
        // Mean hop distance of a w x w mesh is ~2w/3.
        let w = (cores as f64).sqrt();
        t.row(&[
            cores.to_string(),
            format!("{:.3}", geomean(&energies)),
            format!("{:.3}", geomean(&times)),
            format!("{:.1}", 2.0 * w / 3.0),
        ]);
    }
    t.sep();

    println!("\nSection 3.6 storage scaling (per-core classifier KB):");
    let t2 = Table::new(&[8, 14, 14]);
    t2.row(&cells("cores,Limited-3,Complete"));
    for &cores in &[16usize, 64, 256, 1024] {
        let mut cfg = lacc_model::SystemConfig::isca13_64core();
        cfg.num_cores = cores;
        let lim = storage_report(&cfg);
        cfg.classifier.tracking = TrackingKind::Complete;
        let comp = storage_report(&cfg);
        t2.row(&[
            cores.to_string(),
            format!("{:.1}", lim.classifier_kb),
            format!("{:.1}", comp.classifier_kb),
        ]);
    }
    println!("\n(Limited_3 grows only with log2(cores) — the core-id field — while");
    println!("Complete grows linearly: the §3.4 scalability argument.)");
}
