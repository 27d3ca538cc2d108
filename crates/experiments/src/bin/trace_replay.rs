//! Replay a `.ltf` trace file through the simulator and print the
//! standard report.
//!
//! The file is read once into memory and validated; every core's cursor
//! decodes in place from that one buffer, and the run is bit-identical to
//! simulating the workload the file was dumped from.
//!
//! ```text
//! trace_replay <file.ltf> [--cores N] [--pct N] [--small]
//! ```
//!
//! `--cores` defaults to the trace's own core count; `--small` swaps the
//! Table-1 machine for the reduced test configuration (what the repo's
//! tests use at small scales). A `--cores` outside 1..=1024 is a usage
//! error (exit 2), as in every other tool. An unreadable or malformed
//! trace, or a machine too small for it, exits 1 with an `error: …` line.

use lacc_experiments::{config_for_cores, flag_cores, flag_value, or_exit, CliError};
use lacc_model::SystemConfig;
use lacc_sim::{ltf, Simulator};

const USAGE: &str = "usage: trace_replay <file.ltf> [--cores N] [--pct N] [--small]";

struct Args {
    path: String,
    cores: Option<usize>,
    pct: Option<u32>,
    small: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
    let mut path = None;
    let mut cores = None;
    let mut pct = None;
    let mut small = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cores" => cores = Some(flag_cores(&mut args, "--cores")?),
            "--pct" => pct = Some(flag_value(&mut args, "--pct", "an integer")?),
            "--small" => small = true,
            flag if flag.starts_with("--") => return Err(CliError::UnknownFlag(arg)),
            _ if path.is_some() => return Err(CliError::Usage("exactly one trace file expected")),
            _ => path = Some(arg),
        }
    }
    let path = path.ok_or(CliError::Usage("a trace file is required"))?;
    Ok(Args { path, cores, pct, small })
}

fn main() {
    let args = or_exit(parse_args(std::env::args().skip(1)), USAGE);
    let fail = |e: &dyn std::fmt::Display| -> ! {
        eprintln!("error: cannot replay '{}': {e}", args.path);
        std::process::exit(1);
    };
    let workload = ltf::read_workload(&args.path).unwrap_or_else(|e| fail(&e));

    let cores = args.cores.unwrap_or_else(|| workload.active_cores().max(1));
    let mut cfg =
        if args.small { SystemConfig::small_for_tests(cores) } else { config_for_cores(cores) };
    if let Some(pct) = args.pct {
        cfg = cfg.with_pct(pct);
    }

    let banner = format!(
        "replaying '{}' ({} cores, {} regions) on a {cores}-core machine (PCT {})",
        workload.name,
        workload.active_cores(),
        workload.regions.len(),
        cfg.classifier.pct,
    );
    let sim = Simulator::new(cfg, workload).unwrap_or_else(|e| fail(&e));
    println!("{banner}");
    let report = sim.run();
    println!("{}", report.summary());
    println!(
        "  network: {} flits   dram: {} accesses   promotions: {}   demotions: {}",
        report.net.link_flits,
        report.dram.accesses,
        report.protocol.promotions,
        report.protocol.demotions,
    );
    assert_eq!(report.monitor.violations, 0, "coherence violated during replay");
}
