//! A malformed command line makes every experiment binary exit with
//! status 2 and an error naming the flag, before any simulation starts —
//! never an index-out-of-bounds or `expect` panic.

use std::process::Command;

fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe).args(args).output().expect("launch binary");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_flags_exit_2_and_name_the_flag() {
    let cases: [(&str, &[&str], &str); 5] = [
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
    ];
    for (exe, args, want) in cases {
        let (code, stderr) = run(exe, args);
        assert_eq!(code, Some(2), "{exe} {args:?}: {stderr}");
        assert!(stderr.contains(want), "{exe} {args:?}: expected {want:?} in {stderr:?}");
        assert!(stderr.contains("usage: "), "{exe} {args:?}: usage line: {stderr:?}");
        assert!(!stderr.contains("panicked"), "{exe} {args:?}: {stderr:?}");
    }
}
