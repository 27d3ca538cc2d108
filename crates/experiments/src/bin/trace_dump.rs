//! Dump any suite workload to a LACC Trace Format (`.ltf`) file.
//!
//! The dumped file is a durable, replayable artifact: feed it back through
//! `trace_replay` (or `lacc_sim::ltf::read_workload`) to reproduce the
//! exact simulation the in-memory generator would drive. See `docs/LTF.md`
//! for the format.
//!
//! ```text
//! trace_dump --bench <name> [--cores N] [--scale F] [--out PATH] [--stats]
//! ```
//!
//! `--stats` additionally prints each core's stream size in bytes and
//! bytes per op.
//!
//! Default output path: `results/<benchmark>.ltf`. Exits 1 with an
//! `error: …` line when the file cannot be written.

use lacc_experiments::{flag_benchmark, flag_cores, flag_scale, flag_value, or_exit, CliError};
use lacc_model::TraceError;
use lacc_sim::ltf::{self, LtfSummary};
use lacc_sim::Workload;
use lacc_workloads::Benchmark;

const USAGE: &str =
    "usage: trace_dump --bench <name> [--cores N] [--scale F] [--out PATH] [--stats]";

struct Args {
    bench: Benchmark,
    cores: usize,
    scale: f64,
    out: Option<String>,
    stats: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
    let mut bench = None;
    let mut cores = 64;
    let mut scale = 1.0;
    let mut out = None;
    let mut stats = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => bench = Some(flag_benchmark(&mut args, "--bench")?),
            "--cores" => cores = flag_cores(&mut args, "--cores")?,
            "--scale" => scale = flag_scale(&mut args, "--scale")?,
            "--out" => out = Some(flag_value(&mut args, "--out", "a path")?),
            "--stats" => stats = true,
            _ => return Err(CliError::UnknownFlag(arg)),
        }
    }
    let bench = bench.ok_or(CliError::Usage("--bench is required"))?;
    Ok(Args { bench, cores, scale, out, stats })
}

/// Writes the trace, creating the output directory if needed.
fn dump(workload: Workload, path: &str) -> Result<LtfSummary, TraceError> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    workload.dump_ltf_v2(path)
}

fn main() {
    let args = or_exit(parse_args(std::env::args().skip(1)), USAGE);
    let path = args.out.clone().unwrap_or_else(|| format!("results/{}.ltf", args.bench.name()));
    let workload = args.bench.build(args.cores, args.scale);
    let line = format!(
        "wrote {path}: workload '{}' (v{}), {} cores, {} regions, instr footprint {} lines",
        workload.name,
        ltf::VERSION,
        workload.traces.len(),
        workload.regions.len(),
        workload.instr_lines,
    );
    let summary = dump(workload, &path).unwrap_or_else(|e| {
        eprintln!("error: cannot write '{path}': {e}");
        std::process::exit(1);
    });

    println!("{line}");
    println!(
        "  {} ops total ({} bytes, {:.2} bytes/op)",
        summary.total_ops(),
        summary.bytes,
        summary.bytes as f64 / summary.total_ops().max(1) as f64,
    );

    if args.stats {
        println!("  per-core stream bytes (core: bytes, bytes/op):");
        for (core, (&bytes, &ops)) in
            summary.bytes_per_core.iter().zip(summary.ops_per_core.iter()).enumerate()
        {
            println!("    {core:3}: {bytes} B, {:.2} B/op", bytes as f64 / ops.max(1) as f64);
        }
    }
}
