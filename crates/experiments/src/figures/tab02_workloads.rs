//! Table 2 (§4.3): the benchmark suite — original problem sizes alongside
//! the generated stand-in traces' vital statistics at the current scale.

use lacc_sim::TraceOp;

use super::{no_jobs, Figure};
use crate::{Cli, SweepResults, Table};

pub const FIGURE: Figure = Figure { name: "tab02_workloads", jobs: no_jobs, render };

fn render(cli: &Cli, _: &SweepResults) {
    println!("Table 2: Problem sizes and generated stand-ins (scale {})", cli.scale);
    let t = Table::new(&[14, 18, 34, 10, 10, 8]);
    t.header("benchmark,suite,paper problem size,mem-ops,stores%,barriers");
    for b in cli.benchmarks() {
        let w = b.build(cli.cores, cli.scale);
        let mut mem = 0u64;
        let mut stores = 0u64;
        let mut barriers = 0u64;
        for mut trace in w.traces {
            while let Some(op) = trace.next_op() {
                match op {
                    TraceOp::Load { .. } => mem += 1,
                    TraceOp::Store { .. } => {
                        mem += 1;
                        stores += 1;
                    }
                    TraceOp::Barrier { .. } => barriers += 1,
                    _ => {}
                }
            }
        }
        t.row(&[
            b.name().to_string(),
            b.suite().to_string(),
            b.problem_size().to_string(),
            mem.to_string(),
            format!("{:.1}", 100.0 * stores as f64 / mem.max(1) as f64),
            (barriers / cli.cores.max(1) as u64).to_string(),
        ]);
    }
}
