//! The lacc benchmark: four 64-core workloads, end-to-end host metrics and
//! a traced per-layer pass. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every metric is printed by name with its unit; the last line of stdout
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod layers;
mod workload;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use lacc_experiments::config_for_cores;

use check::Checker;
use layers::{CallCosts, Counters, Estimates, Profile, PROFILE_ENV};
use workload::{Kind, Pass};

const USAGE: &str = "usage: lacc-perfbench --workload <suite_sweep|private_replay|\
                     coherence_pct4|coherence_pct1> --seed <n> --seconds <s> --trace <0|1>";

/// Fewest measured passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one pass as the traced child of a `--trace 1` run.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace, mut child) = (None, None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--profile-child" {
            child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::by_name(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        child,
    })
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn count(&mut self, name: &'static str, value: u64) {
        self.put(name, value as f64, "count");
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn sum_reports<'a>(outcomes: impl IntoIterator<Item = &'a workload::Outcome>) -> Counters {
    let mut c = Counters::default();
    for (_, res) in outcomes {
        if let Ok(r) = res {
            c.add(r);
        }
    }
    c
}

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lacc-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work_dir = manifest_dir().join("work");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("lacc-perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    if args.child {
        child_main(&args, &work_dir);
        return ExitCode::SUCCESS;
    }
    if std::env::var_os(PROFILE_ENV).is_some() {
        eprintln!("lacc-perfbench: unset {PROFILE_ENV}; the traced pass sets it in a child only");
        return ExitCode::from(2);
    }

    let mut checker = Checker::new(args.kind, args.seed);
    let mut metrics = Metrics::default();
    let mut sizes = Sizes::default();
    if args.trace {
        traced(&args, &work_dir, &mut checker, &mut metrics, &mut sizes);
    } else {
        untraced(&args, &work_dir, &mut checker, &mut metrics, &mut sizes);
    }
    let correct = checker.failed == 0;
    for p in &checker.problems {
        eprintln!("lacc-perfbench: FAILED {p}");
    }

    let prov = provenance(&args, &sizes);
    println!("{prov}");
    for (name, value, unit) in &metrics.0 {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    println!(
        "outputs {}: {} simulations attempted, {} failed",
        if correct { "correct" } else { "INCORRECT" },
        checker.attempted,
        checker.failed
    );
    let json = result_json(correct, checker.attempted, checker.failed, &metrics);
    append_trajectory(&prov, &json);
    println!("{json}");
    ExitCode::SUCCESS
}

/// Trace sizes of a run, for its provenance record.
#[derive(Default)]
struct Sizes {
    trace_ops: u64,
    ltf_bytes: u64,
}

/// The end-to-end pass: repeat set-up and simulations for `--seconds`
/// (at least [`MIN_PASSES`] times) and report medians.
///
/// A single-process workload's simulations run one after another and are
/// timed one by one, so its wall time is the sum of each simulation's
/// median: a burst of host noise then skews one sample of one simulation,
/// not a whole pass. The sweep's simulations overlap in the pool, so its
/// wall time is the median pass.
fn untraced(
    args: &Args,
    work_dir: &Path,
    checker: &mut Checker,
    m: &mut Metrics,
    sizes: &mut Sizes,
) {
    let start = Instant::now();
    let mut setups = Vec::new();
    // Per timed part (a simulation, or the whole sweep): one time per pass.
    let mut parts: Vec<Vec<f64>> = Vec::new();
    let mut instructions;
    loop {
        let pass = workload::run_pass(args.kind, args.seed, true, work_dir);
        checker.check(&format!("pass {}", setups.len() + 1), &pass.outcomes);
        if setups.is_empty() {
            print_digests(args.kind, &pass);
        }
        instructions = sum_reports(&pass.outcomes).instructions as f64;
        sizes.ltf_bytes = pass.setup.ltf_bytes;
        sizes.trace_ops = pass.setup.ltf_ops;
        setups.push(pass.setup.total_s());
        let times = if pass.sim_s.is_empty() { vec![pass.wall_s] } else { pass.sim_s };
        parts.resize_with(times.len(), Vec::new);
        for (part, t) in parts.iter_mut().zip(times) {
            part.push(t);
        }
        if setups.len() >= MIN_PASSES && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    eprintln!("lacc-perfbench: {} passes; times {parts:?}; setup_s {setups:?}", setups.len());
    let wall_s: f64 = parts.iter().map(|p| median(p)).sum();
    m.put("wall_s", wall_s, "s");
    m.put("setup_s", median(&setups), "s");
    m.put("sim_minstr_per_s", instructions / wall_s / 1e6, "Minstr/s");
    m.put("peak_rss_mib", peak_rss_mib(), "MiB");
    // Trace sizes for the provenance record, after the peak is read: the
    // presets' trace lengths are their cost hints, the replayed recipes'
    // ops were counted while encoding, the generated ones are counted here.
    match args.kind {
        Kind::SuiteSweep => sizes.trace_ops = workload::sweep_cost_hints().iter().sum(),
        Kind::PrivateReplay => {}
        _ => sizes.trace_ops = workload::count_trace_ops(args.kind, args.seed),
    }
}

/// Lists each simulation's digest on stderr (what `digests.txt` pins).
fn print_digests(kind: Kind, pass: &Pass) {
    for (label, res) in &pass.outcomes {
        if let Ok(r) = res {
            eprintln!("digest {} {label} {:016x}", kind.name(), check::digest(r));
        }
    }
}

/// The traced child: one pass with the engine profile on (the parent set
/// the variable on this process only). Reports its wall time and digests
/// on stdout; the engine writes its profile lines to stderr.
fn child_main(args: &Args, work_dir: &Path) {
    let pass = workload::run_pass(args.kind, args.seed, true, work_dir);
    println!("child-wall {}", pass.wall_s);
    for (label, res) in &pass.outcomes {
        match res {
            Ok(r) => println!("child-digest {label} {:016x}", check::digest(r)),
            Err(msg) => println!("child-panic {label} {}", msg.replace('\n', " ")),
        }
    }
}

struct ChildRun {
    wall_s: f64,
    digests: Vec<(String, Option<u64>)>,
    profile: Option<Profile>,
}

fn run_traced_child(args: &Args) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--profile-child", "--workload", args.kind.name(), "--seed"])
        .arg(args.seed.to_string())
        .env(PROFILE_ENV, "1")
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawning the traced child: {e}"))?;
    if !out.status.success() {
        return Err(format!("traced child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut wall_s = None;
    let mut digests = Vec::new();
    for line in stdout.lines() {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some("child-wall"), Some(w), _) => wall_s = w.parse().ok(),
            (Some("child-digest"), Some(label), Some(hex)) => {
                digests.push((label.to_string(), u64::from_str_radix(hex, 16).ok()));
            }
            (Some("child-panic"), Some(label), _) => digests.push((label.to_string(), None)),
            _ => {}
        }
    }
    Ok(ChildRun {
        wall_s: wall_s.ok_or("traced child printed no wall time")?,
        digests,
        profile: layers::parse_profile(&String::from_utf8_lossy(&out.stderr)),
    })
}

/// The traced pass: per-layer metrics, never mixed into the end-to-end
/// numbers. Every simulation it runs is checked like a measured one.
fn traced(args: &Args, work_dir: &Path, checker: &mut Checker, m: &mut Metrics, sizes: &mut Sizes) {
    let kind = args.kind;
    let workers = workload::nproc();

    // The untraced reference the traced child is compared with.
    let reference = workload::run_pass(kind, args.seed, true, work_dir);
    checker.check("reference", &reference.outcomes);
    let c = sum_reports(&reference.outcomes);

    // 1. The engine's self-time profile, from a child process.
    let child = match run_traced_child(args) {
        Ok(child) => {
            for (label, d) in &child.digests {
                checker.attempted += 1;
                let expect = checker.digests().get(label).copied();
                if d.is_none() || *d != expect {
                    checker.fail(format!("traced child: {label}: digest differs from untraced"));
                }
            }
            Some(child)
        }
        Err(e) => {
            checker.fail(e);
            None
        }
    };

    // 2. The monitor's cost, from a pass with it off.
    let off = workload::run_pass(kind, args.seed, false, work_dir);
    checker.check("monitor off", &off.outcomes);
    let monitor_cost_s = reference.wall_s - off.wall_s;
    drop(off);

    // 3. The sweep pool: every grid point alone, serially.
    let (serial_job_s, lpt_s, sim_thread_s) = if kind == Kind::SuiteSweep {
        let serial = workload::sweep_serial();
        let outcomes: Vec<_> = serial.iter().map(|(_, o)| o.clone()).collect();
        checker.check("jobs=1", &outcomes);
        let times: Vec<f64> = serial.iter().map(|(t, _)| *t).collect();
        let hints = workload::sweep_cost_hints();
        let mut order: Vec<usize> = (0..times.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(hints[i]));
        let dispatch: Vec<f64> = order.iter().map(|&i| times[i]).collect();
        let total: f64 = times.iter().sum();
        let setup = reference.setup.build_s + reference.setup.ctor_s;
        (total, layers::lpt_makespan(&dispatch, workers), total - setup)
    } else {
        // One thread runs the simulations back to back.
        let total: f64 = reference.sim_s.iter().sum();
        (total, total, total)
    };
    let pool_workers = if kind == Kind::SuiteSweep { workers } else { 1 };

    // 4. Substrate call costs, and what they explain of each run.
    let costs = layers::call_costs(&config_for_cores(workload::CORES));
    let est = Estimates::new(&costs, &c);

    let trace_ops = workload::count_trace_ops(kind, args.seed);
    let decode = workload::ltf_decode_ns_per_op(kind, args.seed, work_dir);
    sizes.trace_ops = trace_ops;
    sizes.ltf_bytes = reference.setup.ltf_bytes;

    m.put("sweep.serial_job_s", serial_job_s, "s");
    m.put("sweep.lpt_makespan_s", lpt_s, "s");
    m.put(
        "sweep.pool_efficiency",
        ratio(serial_job_s, pool_workers as f64 * reference.wall_s),
        "ratio",
    );

    m.put("workloads.build_s", reference.setup.build_s, "s");
    m.count("workloads.trace_ops", trace_ops);

    m.put("ltf.encode_s", reference.setup.encode_s, "s");
    m.put("ltf.open_s", reference.setup.open_s, "s");
    m.put("ltf.bytes", reference.setup.ltf_bytes as f64, "bytes");
    m.put("ltf.decode_ns_per_op", decode.unwrap_or(0.0), "ns");

    m.put("engine.ctor_s", reference.setup.ctor_s, "s");
    match child.as_ref().and_then(|ch| ch.profile.map(|p| (ch.wall_s, p))) {
        Some((child_wall, p)) => {
            engine_metrics(m, &p, child_wall, reference.wall_s, sim_thread_s, &est)
        }
        None => eprintln!("lacc-perfbench: no engine profile lines; engine.* metrics absent"),
    }

    m.count("monitor.reads_checked", c.monitor_reads);
    m.count("monitor.writes_recorded", c.monitor_writes);
    m.put("monitor.cost_s", monitor_cost_s, "s");

    core_metrics(m, &c, &costs, &est);
    network_metrics(m, &c, &costs, &est);
    cache_metrics(m, &c, &costs, &est);
    dram_metrics(m, &c, &costs, &est);

    m.put("sim.completion_cycles", c.completion_cycles as f64, "cycles");
    m.count("sim.instructions", c.instructions);
    m.put("sim.energy_pj", c.energy_pj, "pJ");
    m.put("sim.l2_waiting_cycles", c.l2_waiting_cycles as f64, "cycles");
}

fn engine_metrics(
    m: &mut Metrics,
    p: &Profile,
    traced_wall_s: f64,
    untraced_wall_s: f64,
    sim_thread_s: f64,
    est: &Estimates,
) {
    m.count("engine.events", p.events);
    m.put("engine.ns_per_event", ratio(sim_thread_s * 1e9, p.events as f64), "ns");
    m.put("engine.queue.pop_ms", p.pop_ms, "ms");
    m.count("engine.core_step.n", p.core_step.n);
    m.put("engine.core_step.ms", p.core_step.ms, "ms");
    m.count("engine.deliver.n", p.deliver.n);
    m.put("engine.deliver.ms", p.deliver.ms, "ms");
    m.count("engine.home_lookup.n", p.home_lookup.n);
    m.put("engine.home_lookup.ms", p.home_lookup.ms, "ms");
    m.put("engine.unattributed_ms", p.dispatch_ms() - est.total_ms(), "ms");
    m.put("engine.trace_overhead", ratio(traced_wall_s, untraced_wall_s), "ratio");
}

fn core_metrics(m: &mut Metrics, c: &Counters, k: &CallCosts, est: &Estimates) {
    m.count("core.line_grants", c.line_grants);
    m.count("core.upgrades", c.upgrades);
    m.count("core.word_reads", c.word_reads);
    m.count("core.word_writes", c.word_writes);
    m.put(
        "core.remote_ratio",
        ratio((c.word_reads + c.word_writes) as f64, c.home_requests() as f64),
        "ratio",
    );
    m.count("core.promotions", c.promotions);
    m.count("core.demotions", c.demotions);
    m.count("core.invalidations_sent", c.invalidations_sent);
    m.count("core.broadcasts", c.broadcasts);
    m.count("core.write_backs", c.write_backs);
    m.count("core.evictions", c.evictions);
    m.count("core.l2_evictions", c.l2_evictions);
    m.count("core.dir_accesses", c.dir_accesses);
    m.put("core.dir.call_ns", k.dir_ns, "ns");
    m.put("core.dir.est_ms", est.dir_ms, "ms");
    m.count("core.l1d.accesses", c.l1d_accesses());
    m.put("core.l1d.hit_ratio", ratio(c.l1d_hits as f64, c.l1d_accesses() as f64), "ratio");
    let miss = &c.l1d_misses;
    m.count("core.l1d.miss.cold", miss[0]);
    m.count("core.l1d.miss.capacity", miss[1]);
    m.count("core.l1d.miss.upgrade", miss[2]);
    m.count("core.l1d.miss.sharing", miss[3]);
    m.count("core.l1d.miss.word", miss[4]);
}

fn network_metrics(m: &mut Metrics, c: &Counters, k: &CallCosts, est: &Estimates) {
    m.count("network.unicasts", c.net_unicasts);
    m.count("network.broadcasts", c.net_broadcasts);
    m.put("network.link_flits", c.link_flits as f64, "flits");
    m.put("network.contention_cycles", c.contention_cycles as f64, "cycles");
    m.put("network.unicast.call_ns", k.unicast_ns, "ns");
    m.put("network.broadcast.call_ns", k.broadcast_ns, "ns");
    m.put("network.est_ms", est.network_ms, "ms");
}

fn cache_metrics(m: &mut Metrics, c: &Counters, k: &CallCosts, est: &Estimates) {
    m.count("cache.slab.allocs", c.slab_allocs);
    m.count("cache.slab.retains", c.slab_retains);
    m.count("cache.slab.releases", c.slab_releases);
    m.count("cache.slab.cow_clones", c.slab_cow_clones);
    m.put("cache.slab.bytes_copied", c.slab_bytes_copied as f64, "bytes");
    m.put(
        "cache.slab.alias_ratio",
        ratio(c.slab_bytes_aliased as f64, (c.slab_bytes_aliased + c.slab_bytes_copied) as f64),
        "ratio",
    );
    m.put("cache.slab.call_ns", k.slab_ns, "ns");
    m.put("cache.set_assoc.call_ns", k.set_assoc_ns(c), "ns");
    m.count("cache.l2_tag_probes", c.l2_tag_probes);
    m.put("cache.est_ms", est.cache_ms, "ms");
}

fn dram_metrics(m: &mut Metrics, c: &Counters, k: &CallCosts, est: &Estimates) {
    m.count("dram.accesses", c.dram_accesses);
    m.put("dram.bytes", c.dram_bytes as f64, "bytes");
    m.put("dram.queue_cycles", c.dram_queue_cycles as f64, "cycles");
    m.put("dram.call_ns", k.dram_ns, "ns");
    m.put("dram.est_ms", est.dram_ms, "ms");
}

/// The git revision of the checkout, read from `.git` beside the
/// benchmark's directory; `unknown` when the checkout is not a repository.
fn git_revision() -> String {
    let git = manifest_dir().join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| p.lines().find_map(|l| l.strip_suffix(name).map(|r| r.trim().to_string())))
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .stdin(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// One JSON object recording where and how the run was made.
fn provenance(args: &Args, sizes: &Sizes) -> String {
    let secs = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    format!(
        "{{\"unix_time\": {secs}, \"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"nproc\": {}, \"git_revision\": {}, \"rustc\": {}, \"scale\": {}, \"trace_ops\": {}, \
         \"ltf_bytes\": {}}}",
        json_str(args.kind.name()),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        workload::nproc(),
        json_str(&git_revision()),
        json_str(&rustc_version()),
        args.kind.scale(),
        sizes.trace_ops,
        sizes.ltf_bytes,
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_json(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(failed).max(1)
    );
    let mut first = true;
    for (name, value, unit) in &m.0 {
        if !value.is_finite() {
            continue;
        }
        if !first {
            s.push_str(", ");
        }
        first = false;
        let _ =
            write!(s, "{}: {{\"value\": {value:?}, \"unit\": {}}}", json_str(name), json_str(unit));
    }
    s.push_str("}}");
    s
}

/// Appends the run's provenance and result to the trajectory file in the
/// benchmark's directory, so successive runs and commits can be compared.
fn append_trajectory(prov: &str, result: &str) {
    let path = manifest_dir().join("trajectory.jsonl");
    let line = format!("{{\"run\": {prov}, \"result\": {result}}}\n");
    let res = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = res {
        eprintln!("lacc-perfbench: cannot append to {}: {e}", path.display());
    }
}
