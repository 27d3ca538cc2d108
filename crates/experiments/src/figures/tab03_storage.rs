//! §3.6 storage-overhead arithmetic: reproduces every number the paper
//! reports — 18 KB/core for Limited_3, 192 KB for Complete, 12 KB for
//! ACKwise_4, 32 KB for full-map, 5.7%/60% overheads, and the headline
//! that Limited_3 + ACKwise_4 needs less storage than full-map alone.

use lacc_core::overheads::storage_report;
use lacc_model::config::{ClassifierConfig, DirectoryKind, MechanismKind, TrackingKind};

use super::{no_jobs, Figure};
use crate::{cells, Cli, SweepResults, Table};

pub const FIGURE: Figure = Figure { name: "tab03_storage", jobs: no_jobs, render };

fn render(cli: &Cli, _: &SweepResults) {
    let base = cli.base_config();

    let complete =
        ClassifierConfig { tracking: TrackingKind::Complete, ..ClassifierConfig::isca13_default() };
    let timestamp = ClassifierConfig { mechanism: MechanismKind::Timestamp, ..complete };
    let variants = [
        ("Limited-3 + ACKwise4 (default)", base.clone()),
        ("Complete + ACKwise4", base.clone().with_classifier(complete)),
        ("Timestamp + Complete (ideal)", base.clone().with_classifier(timestamp)),
        ("Limited-3 + Full-Map", base.with_directory(DirectoryKind::FullMap)),
    ];

    println!("Section 3.6: storage overheads per core ({}-core machine)", cli.cores);
    let t = Table::new(&[30, 12, 12, 12, 12, 10]);
    t.row(&cells("configuration,classifier,L1 bits,directory,full-map,overhead"));
    t.header(",KB,KB,KB,KB,%");
    for (name, cfg) in &variants {
        let r = storage_report(cfg);
        t.row(&[
            (*name).to_string(),
            format!("{:.2}", r.classifier_kb),
            format!("{:.2}", r.l1_kb),
            format!("{:.2}", r.directory_kb),
            format!("{:.2}", r.full_map_kb),
            format!("{:.1}", 100.0 * r.overhead_vs_baseline),
        ]);
    }
    t.sep();

    let def = storage_report(&variants[0].1);
    println!("\nPaper anchors reproduced:");
    println!("  Limited-3 classifier bits/entry : {} (paper: 36)", def.classifier_bits_per_entry);
    println!("  Limited-3 classifier storage    : {} KB (paper: 18 KB)", def.classifier_kb);
    println!("  ACKwise4 directory              : {} KB (paper: 12 KB)", def.directory_kb);
    println!("  Full-map directory              : {} KB (paper: 32 KB)", def.full_map_kb);
    println!(
        "  Limited-3 + ACKwise4 = {} KB  <  Full-map alone = {} KB  : {}",
        def.classifier_kb + def.directory_kb,
        def.full_map_kb,
        def.classifier_kb + def.directory_kb < def.full_map_kb
    );
    println!(
        "  Overhead vs baseline ACKwise4   : {:.1}% (paper: 5.7%)",
        100.0 * def.overhead_vs_baseline
    );
    let complete = storage_report(&variants[1].1);
    println!(
        "  Complete classifier             : {} KB, {:.0}% overhead (paper: 192 KB, ~60%)",
        complete.classifier_kb,
        100.0 * complete.overhead_vs_baseline
    );
}
