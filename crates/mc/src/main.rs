//! CLI for the model checker: enumerate scenario × configuration
//! matrices, print reachable-state counts, and run the mutation kill
//! matrix. Exits nonzero on any violation (or surviving mutant), so CI
//! can gate on it. See docs/EXPERIMENTS.md ("Model checking").

use std::process::ExitCode;

use lacc_mc::{config_matrix, explore, run_mutation, scenarios, CheckConfig, MUTANTS};

const USAGE: &str = "\
usage: lacc_mc [--cores N] [--lines N] [--depth N | --depth-full]
               [--max-states N] [--mutations]

  --cores N      machine size of the scenarios to run (default 2)
  --lines N      max distinct shared lines of the scenarios (default 1)
  --depth N      bound explored paths at N choices
  --depth-full   no depth bound: enumerate the full reachable space (default)
  --max-states N safety cap on distinct states (default 2000000)
  --mutations    run the mutation kill matrix instead of the clean sweep
";

fn parse_num(args: &mut std::env::Args, flag: &str) -> usize {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{flag} needs a numeric argument\n{USAGE}"))
}

fn main() -> ExitCode {
    let mut cores = 2usize;
    let mut lines = 1u64;
    let mut ck = CheckConfig::default();
    let mut mutations = false;

    let mut args = std::env::args();
    let _ = args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cores" => cores = parse_num(&mut args, "--cores"),
            "--lines" => lines = parse_num(&mut args, "--lines") as u64,
            "--depth" => ck.depth = Some(parse_num(&mut args, "--depth")),
            "--depth-full" => ck.depth = None,
            "--max-states" => ck.max_states = parse_num(&mut args, "--max-states"),
            "--mutations" => mutations = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Handler panics are kills the checker catches and reports; keep
    // their default backtrace spew out of the report.
    std::panic::set_hook(Box::new(|_| {}));

    if mutations {
        return run_mutations(ck);
    }

    let mut failed = false;
    for scenario in scenarios() {
        if scenario.cores != cores || scenario.lines > lines {
            continue;
        }
        for (cfg_name, cfg) in config_matrix(scenario.cores) {
            let r = explore(&cfg, &scenario, None, ck);
            let depth = ck.depth.map_or_else(|| "full".into(), |d| format!("≤{d}"));
            println!(
                "{:<18} {:<14} depth {:<5} states {:>7}  dups {:>7}  terminals {:>5}  max-path {}{}",
                scenario.name,
                cfg_name,
                depth,
                r.states,
                r.duplicates,
                r.terminals,
                r.max_depth,
                if r.capped { "  [CAPPED]" } else { "" },
            );
            if let Some(cx) = r.violation {
                println!("FAIL {} [{}]\n{cx}", scenario.name, cfg_name);
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_mutations(ck: CheckConfig) -> ExitCode {
    let mut survivors = 0;
    for fault in MUTANTS {
        let outcome = run_mutation(fault, ck);
        match outcome.counterexample {
            Some(cx) => {
                println!(
                    "KILLED   {:<22} [{}] after {} states, {}-step counterexample",
                    format!("{fault:?}"),
                    outcome.config,
                    outcome.states_explored,
                    cx.path.len()
                );
                for line in cx.to_string().lines() {
                    println!("    {line}");
                }
            }
            None => {
                println!(
                    "SURVIVED {:<22} after {} states — the checker missed it",
                    format!("{fault:?}"),
                    outcome.states_explored
                );
                survivors += 1;
            }
        }
    }
    if survivors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
