//! Dump any suite workload to a LACC Trace Format (`.ltf`) file.
//!
//! The dumped file is a durable, replayable artifact: feed it back through
//! `trace_replay` (or `lacc_sim::ltf::read_workload`) to reproduce the
//! exact simulation the in-memory generator would drive. See `docs/LTF.md`
//! for the format.
//!
//! ```text
//! trace_dump --bench <name> [--cores N] [--scale F] [--out PATH] [--v2] [--stats]
//! ```
//!
//! `--v2` writes the delta-compressed version-2 stream encoding (same
//! container; `trace_replay` reads either). `--stats` additionally prints
//! per-core stream sizes and the compression ratio against the v1
//! encoding of the same workload (computed in memory, nothing extra is
//! written).
//!
//! Default output path: `results/<benchmark>.ltf`.

use lacc_experiments::{flag_benchmark, flag_value, or_exit, CliError};
use lacc_sim::ltf;
use lacc_workloads::Benchmark;

const USAGE: &str =
    "usage: trace_dump --bench <name> [--cores N] [--scale F] [--out PATH] [--v2] [--stats]";

struct Args {
    bench: Benchmark,
    cores: usize,
    scale: f64,
    out: Option<String>,
    v2: bool,
    stats: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
    let mut bench = None;
    let mut cores = 64;
    let mut scale = 1.0;
    let mut out = None;
    let mut v2 = false;
    let mut stats = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => bench = Some(flag_benchmark(&mut args, "--bench")?),
            "--cores" => cores = flag_value(&mut args, "--cores", "an integer")?,
            "--scale" => scale = flag_value(&mut args, "--scale", "a number")?,
            "--out" => out = Some(flag_value(&mut args, "--out", "a path")?),
            "--v2" => v2 = true,
            "--stats" => stats = true,
            _ => return Err(CliError::UnknownFlag(arg)),
        }
    }
    let bench = bench.ok_or(CliError::Usage("--bench is required"))?;
    Ok(Args { bench, cores, scale, out, v2, stats })
}

fn main() {
    let args = or_exit(parse_args(std::env::args().skip(1)), USAGE);
    let path = args.out.clone().unwrap_or_else(|| format!("results/{}.ltf", args.bench.name()));
    if let Some(parent) = std::path::Path::new(&path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }

    let summary = if args.v2 {
        args.bench.dump_ltf_v2(args.cores, args.scale, &path)
    } else {
        args.bench.dump_ltf(args.cores, args.scale, &path)
    }
    .unwrap_or_else(|e| panic!("dump failed: {e}"));

    let buf = ltf::SharedBuf::open(&path).expect("re-open dumped trace");
    let (header, _) = ltf::read_header_bytes(&buf).expect("dumped trace decodes");
    println!(
        "wrote {path}: workload '{}' (v{}), {} cores, {} regions, instr footprint {} lines",
        header.name,
        header.version,
        header.num_cores,
        header.regions.len(),
        header.instr_lines,
    );
    println!(
        "  {} ops total ({} bytes, {:.2} bytes/op)",
        summary.total_ops(),
        summary.bytes,
        summary.bytes as f64 / summary.total_ops().max(1) as f64,
    );

    if args.stats {
        // Re-encode the same workload as v1 in memory: the ratio below is
        // "v1 bytes / written bytes", so a v1 dump reads 1.00x and a v2
        // dump reads its real compression factor.
        let v1_bytes = ltf::workload_to_ltf_bytes(args.bench.build(args.cores, args.scale))
            .expect("in-memory v1 encode")
            .len();
        println!("  per-core stream bytes (core: bytes, bytes/op):");
        for (core, (&bytes, &ops)) in
            summary.bytes_per_core.iter().zip(summary.ops_per_core.iter()).enumerate()
        {
            println!("    {core:3}: {bytes} B, {:.2} B/op", bytes as f64 / ops.max(1) as f64);
        }
        println!(
            "  compression: {} B total vs {v1_bytes} B as v1 ({:.2}x)",
            summary.bytes,
            v1_bytes as f64 / summary.bytes.max(1) as f64,
        );
    }
}
