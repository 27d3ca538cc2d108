//! CLI for the model checker: enumerate scenario × configuration
//! matrices, print reachable-state counts, and run the mutation kill
//! matrix. Exits 1 on any violation (or surviving mutant), so CI can
//! gate on it, and 2 on a malformed command line or a `--cores`/`--lines`
//! filter that selects no scenario. See docs/EXPERIMENTS.md
//! ("Model checking").

use std::process::ExitCode;

use lacc_experiments::{flag_value, or_exit, CliError};
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

/// The parsed command line.
struct Opts {
    cores: usize,
    lines: u64,
    ck: CheckConfig,
    mutations: bool,
    help: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, CliError> {
    let mut o =
        Opts { cores: 2, lines: 1, ck: CheckConfig::default(), mutations: false, help: false };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cores" => o.cores = flag_value(&mut args, "--cores", "an integer")?,
            "--lines" => o.lines = flag_value(&mut args, "--lines", "an integer")?,
            "--depth" => o.ck.depth = Some(flag_value(&mut args, "--depth", "an integer")?),
            "--depth-full" => o.ck.depth = None,
            "--max-states" => {
                o.ck.max_states = flag_value(&mut args, "--max-states", "an integer")?;
            }
            "--mutations" => o.mutations = true,
            "--help" | "-h" => o.help = true,
            _ => return Err(CliError::UnknownFlag(arg)),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let Opts { cores, lines, ck, mutations, help } =
        or_exit(parse(std::env::args().skip(1)), USAGE);
    if help {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    // Handler panics are kills the checker catches and reports; keep
    // their default backtrace spew out of the report.
    std::panic::set_hook(Box::new(|_| {}));

    if mutations {
        return run_mutations(ck);
    }

    let selected: Vec<_> =
        scenarios().into_iter().filter(|s| s.cores == cores && s.lines <= lines).collect();
    if selected.is_empty() {
        // A filter that checks nothing must not pass as a clean run.
        eprintln!("error: no scenario matches --cores {cores} --lines {lines}\n{USAGE}");
        return ExitCode::from(2);
    }

    let mut failed = false;
    for scenario in selected {
        for (cfg_name, cfg) in config_matrix(scenario.cores) {
            let r = explore(&cfg, &scenario, None, ck);
            let depth = ck.depth.map_or_else(|| "full".into(), |d| format!("≤{d}"));
            println!(
                "{:<19} {:<14} depth {:<5} states {:>7}  dups {:>7}  terminals {:>5}  \
                 broadcast {:>6}  word {:>6}  max-path {}{}",
                scenario.name,
                cfg_name,
                depth,
                r.states,
                r.duplicates,
                r.terminals,
                r.broadcast_states,
                r.word_states,
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
                    "KILLED   {:<27} [{}] after {} states, {}-step counterexample",
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
                    "SURVIVED {:<27} after {} states — the checker missed it",
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
