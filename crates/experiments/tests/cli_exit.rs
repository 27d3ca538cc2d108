//! A malformed command line makes every experiment binary exit with
//! status 2 and an error naming the flag, before any simulation starts —
//! never an index-out-of-bounds or `expect` panic. Bad run-time input to
//! the trace tools (an unwritable output path, a trace the machine cannot
//! run) and an unwritable `results/` directory under a figure binary or
//! `all_figures` exit 1 with an `error: …` line, again without a panic.
//! A benchmark named twice is run once.

use std::process::Command;

fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe).args(args).output().expect("launch binary");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_flags_exit_2_and_name_the_flag() {
    let cases: [(&str, &[&str], &str); 13] = [
        (env!("CARGO_BIN_EXE_fig11_pct_sweep"), &["--jobs"], "--jobs needs a value"),
        (
            env!("CARGO_BIN_EXE_all_figures"),
            &["--scale", "abc"],
            "--scale takes a number, got 'abc'",
        ),
        (
            env!("CARGO_BIN_EXE_trace_dump"),
            &["--bench", "water-sp", "--cores"],
            "--cores needs a value",
        ),
        (env!("CARGO_BIN_EXE_trace_dump"), &["--cores", "8"], "--bench is required"),
        (
            env!("CARGO_BIN_EXE_trace_replay"),
            &["x.ltf", "--pct", "high"],
            "--pct takes an integer, got 'high'",
        ),
        (
            env!("CARGO_BIN_EXE_fig14_oneway"),
            &["--cores", "0"],
            "--cores takes an integer from 1 to 1024, got '0'",
        ),
        (
            env!("CARGO_BIN_EXE_fig14_oneway"),
            &["--cores", "2000"],
            "--cores takes an integer from 1 to 1024, got '2000'",
        ),
        (
            env!("CARGO_BIN_EXE_trace_dump"),
            &["--bench", "water-sp", "--cores", "0"],
            "--cores takes an integer from 1 to 1024, got '0'",
        ),
        (
            env!("CARGO_BIN_EXE_trace_replay"),
            &["x.ltf", "--cores", "0"],
            "--cores takes an integer from 1 to 1024, got '0'",
        ),
        (
            env!("CARGO_BIN_EXE_trace_replay"),
            &["x.ltf", "--cores", "1025"],
            "--cores takes an integer from 1 to 1024, got '1025'",
        ),
        (
            env!("CARGO_BIN_EXE_fig14_oneway"),
            &["--scale", "-1"],
            "--scale takes a finite number greater than 0, got '-1'",
        ),
        (
            env!("CARGO_BIN_EXE_all_figures"),
            &["--scale", "0"],
            "--scale takes a finite number greater than 0, got '0'",
        ),
        (
            env!("CARGO_BIN_EXE_trace_dump"),
            &["--bench", "water-sp", "--scale", "nan"],
            "--scale takes a finite number greater than 0, got 'nan'",
        ),
    ];
    for (exe, args, want) in cases {
        let (code, stderr) = run(exe, args);
        assert_eq!(code, Some(2), "{exe} {args:?}: {stderr}");
        assert!(stderr.contains(want), "{exe} {args:?}: expected {want:?} in {stderr:?}");
        assert!(stderr.contains("usage: "), "{exe} {args:?}: usage line: {stderr:?}");
        assert!(!stderr.contains("panicked"), "{exe} {args:?}: {stderr:?}");
    }
}

#[test]
fn bad_trace_tool_input_exits_1_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("lacc_cli_exit_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("ws8.ltf");
    let trace = trace.to_str().unwrap();
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_trace_dump"),
        &["--bench", "water-sp", "--cores", "8", "--scale", "0.02", "--out", trace],
    );
    assert_eq!(code, Some(0), "{stderr}");

    // A trace whose version byte says 1: the retired encoding.
    let mut bytes = std::fs::read(trace).unwrap();
    bytes[8] = 1;
    let v1 = dir.join("v1.ltf");
    std::fs::write(&v1, bytes).unwrap();
    // A regular file where the output directory should be.
    let blocked = dir.join("not_a_dir");
    std::fs::write(&blocked, b"").unwrap();
    let blocked = blocked.join("x.ltf");
    let blocked = blocked.to_str().unwrap();

    let cases: [(&str, Vec<&str>, &str); 3] = [
        (
            env!("CARGO_BIN_EXE_trace_replay"),
            vec![trace, "--cores", "4"],
            "workload has 8 traces but the machine has 4 cores",
        ),
        (
            env!("CARGO_BIN_EXE_trace_replay"),
            vec![v1.to_str().unwrap()],
            "unsupported LTF version 1",
        ),
        (
            env!("CARGO_BIN_EXE_trace_dump"),
            vec!["--bench", "water-sp", "--cores", "2", "--scale", "0.02", "--out", blocked],
            "error: cannot write",
        ),
    ];
    for (exe, args, want) in cases {
        let (code, stderr) = run(exe, &args);
        assert_eq!(code, Some(1), "{exe} {args:?}: {stderr}");
        assert!(stderr.contains("error: "), "{exe} {args:?}: {stderr:?}");
        assert!(stderr.contains(want), "{exe} {args:?}: expected {want:?} in {stderr:?}");
        assert!(!stderr.contains("panicked"), "{exe} {args:?}: {stderr:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unwritable_results_dir_exits_1_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("lacc_cli_results_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A regular file where the figure binary wants its `results` directory.
    std::fs::write(dir.join("results"), b"").unwrap();
    // `all_figures` renders the tables first; the first figure with a CSV
    // is the one that fails.
    let cases = [
        (env!("CARGO_BIN_EXE_fig14_oneway"), "fig14_oneway.csv"),
        (env!("CARGO_BIN_EXE_all_figures"), "fig01_02_utilization.csv"),
    ];
    for (exe, csv) in cases {
        let out = Command::new(exe)
            .args(["--bench", "water-sp", "--cores", "4", "--scale", "0.01", "--quiet"])
            .current_dir(&dir)
            .output()
            .expect("launch binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{exe}: {stderr}");
        assert!(
            stderr.contains(&format!("error: cannot write results/{csv}")),
            "{exe}: {stderr:?}"
        );
        assert!(!stderr.contains("panicked"), "{exe}: {stderr:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A benchmark named twice is run once: the figure prints and writes
/// what it does for one `--bench`.
#[test]
fn a_repeated_bench_runs_once() {
    let dir = std::env::temp_dir().join(format!("lacc_cli_repeat_{}", std::process::id()));
    let run_in = |sub: &str, benches: &[&str]| {
        let cwd = dir.join(sub);
        std::fs::create_dir_all(&cwd).unwrap();
        let mut args: Vec<&str> = benches.iter().flat_map(|b| ["--bench", b]).collect();
        args.extend(["--cores", "4", "--scale", "0.01", "--quiet", "--jobs", "1"]);
        let out = Command::new(env!("CARGO_BIN_EXE_fig08_energy"))
            .args(&args)
            .current_dir(&cwd)
            .output()
            .expect("launch binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        let csv = std::fs::read(cwd.join("results/fig08_energy.csv")).expect("figure CSV");
        (out.stdout, csv)
    };
    let once = run_in("once", &["water-sp"]);
    let twice = run_in("twice", &["water-sp", "water-sp"]);
    assert!(once == twice, "a repeated --bench changed the figure");
    std::fs::remove_dir_all(&dir).ok();
}
